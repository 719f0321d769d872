#!/usr/bin/env python3
"""The repository benchmark: runs one workload through the shipped rumor_run
binary and prints its metrics.

  python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds rumor_run and the
per-layer tracer into $CARGO_TARGET_DIR (default .bench_build) from the
sources in the working directory. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run. Metric definitions: perfbench/METRICS.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

import measure
import serveload
import workloads
from measure import Child, percentile

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "trials_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
    "peak_rss_mib": "MiB", "job_p50_ms": "ms", "job_p90_ms": "ms",
}

SIMS = workloads.PROTOCOLS
PER_LAYER = {
    "scenario.parse_ms": "ms", "scenario.validate_s": "s",
    "graph.probe_ms": "ms",
    **{f"graph.make_s.{f}": "s"
       for f in ("random_regular", "hypercube", "heavy_tree", "siamese")},
    "graph.medges_per_s": "Medges/s", "graph.csr_mib": "MiB",
    "trials.run_s": "s", "trials.prepare_s": "s",
    "trials.in_flight_mean": "ratio", "trials.tail_s": "s",
    "report.csv_ms": "ms",
    **{f"core.{s}.trial_ms": "ms" for s in SIMS},
    **{f"core.{s}.rounds": "count" for s in SIMS},
    **{f"core.{s}.ns_per_vertex_round": "ns" for s in SIMS},
    **{f"core.{s}.sharded_ns_per_vertex_round": "ns"
       for s in ("push-pull", "visit-exchange", "meet-exchange")},
    "walk.batched_msteps_per_s": "Msteps/s",
    "walk.sharded1_msteps_per_s": "Msteps/s",
    "walk.shardedK_msteps_per_s": "Msteps/s",
    "pool.fanout_us": "us", "pool.cores_busy": "ratio",
    "philox.stream_mwords_per_s": "Mwords/s",
    "philox.slot_mwords_per_s": "Mwords/s",
    "serve.submit_ms_p50": "ms", "serve.submit_ms_p90": "ms",
    "serve.queue_wait_ms_p50": "ms", "serve.queue_wait_ms_p90": "ms",
    "serve.stream_ms": "ms", "serve.stats_ms": "ms",
    "serve.journal_bytes_per_trial": "B",
    "trace.trials_per_s": "1/s", "trace.untraced_trials_per_s": "1/s",
    **{f"self_s.{layer}": "s" for layer in
       ("experiments", "graph", "core", "walk", "support", "serve")},
}

# Span-name prefix -> src/ module the span times.
LAYER_OF = {"scenario": "experiments", "trials": "experiments",
            "report": "experiments", "graph": "graph", "core": "core",
            "walk": "walk", "pool": "support", "philox": "support",
            "serve": "serve"}

SETUP_PROBES = 29  # extra daemon launches per serve-mixed run, for setup_s
RSS_AT_LIGHT_JOB = 300  # serve-mixed peak_rss_mib is read when this one ends


def log(msg):
    print(msg, flush=True)


def fail_usage(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---- build -----------------------------------------------------------------

def build(run_root):
    """Configures and builds rumor_run and perf_layers from the sources in the
    working directory. Returns (rumor_run, perf_layers, build_type)."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail_usage("run from the repository root (CMakeLists.txt and src/ "
                   "not found)")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(run_root, exist_ok=True)
    log_path = os.path.join(run_root, "build.log")
    with open(log_path, "ab") as log_file:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(HERE, "tracer"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(nproc()),
                      "--target", "rumor_run", "perf_layers"])
        for step in steps:
            if subprocess.call(step, stdout=log_file, stderr=log_file,
                               stdin=subprocess.DEVNULL) != 0:
                with open(log_path, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                print(f"perfbench: build failed: {' '.join(step)}",
                      file=sys.stderr)
                sys.exit(1)
    build_type = "unknown"
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return (os.path.join(out, "rumor", "rumor_run"),
            os.path.join(out, "perf_layers"), build_type)


def nproc():
    return len(os.sched_getaffinity(0))


def host_meta(seed, build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True,
                                stdin=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"seed": seed, "nproc": nproc(), "cpu_model": cpu,
            "commit": commit, "build_type": build_type,
            "loadavg_at_start": os.getloadavg()[0],
            "python": platform.python_version()}


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


# ---- one-shot workloads ------------------------------------------------------

class Invocation:
    """One `rumor_run <file>` process with its output checked."""

    def __init__(self, binary, scn_path, seed, scenarios, reference, rundir,
                 index):
        csv_path = os.path.join(rundir, f"out{index}.csv")
        err_path = os.path.join(rundir, f"err{index}.txt")
        child = Child([binary, f"--jobs={nproc()}", f"--seed={seed}",
                       f"--csv={csv_path}", scn_path], stderr_path=err_path)
        first_claim = measure.FirstHelperRun(child)
        code = child.wait()
        first_claim.join()
        self.wall_s = child.wall_s
        self.cpu_s = child.cpu_s
        self.peak_rss_mib = child.peak_rss_mib
        # The table header is flushed once validate_scenarios has passed;
        # run_scenarios then prepares every scenario again before the first
        # trial is claimed, which is when the trial workers start to run.
        # Each finished scenario row is flushed as it completes.
        times = [t - child.t0 for t, _ in child.lines]
        self.setup_s = None
        if times and first_claim.s is not None:
            self.setup_s = max(times[0], first_claim.s)
        self.row_ms = [t * 1e3 for t in times[2:]]
        self.errors = []
        if code != 0:
            with open(err_path, errors="replace") as f:
                self.errors.append(f"exit {code}: {f.read().strip()[-500:]}")
        rows = []
        if os.path.isfile(csv_path):
            with open(csv_path) as f:
                rows = measure.read_csv_rows(f.read())
        self.errors += measure.check_rows(rows, scenarios, reference)
        if not times:
            self.errors.append("no report header on stdout")
        elif first_claim.s is None:
            self.errors.append("the trial workers never ran")
        self.trials = sum(int(r.get("trials", 0) or 0) for r in rows)

    @property
    def trials_per_s(self):
        return self.trials / self.wall_s


def write_scenarios(path, scenarios):
    with open(path, "w") as f:
        for sc in scenarios:
            f.write(sc.line() + "\n")


def run_oneshot(binary, workload, seed, seconds, reference, rundir):
    scenarios = workloads.SCENARIOS[workload](nproc())
    scn = os.path.join(rundir, f"{workload}.scn")
    write_scenarios(scn, scenarios)
    warm = Invocation(binary, scn, seed, scenarios, reference, rundir, 0)
    log(f"warm-up run (discarded): wall {warm.wall_s:.3f}s "
        f"errors {len(warm.errors)}")
    # Processes run back to back until the next one would end past the
    # measuring window (judged by the last one's wall time).
    runs = []
    start = time.monotonic()
    while not runs or (time.monotonic() - start + runs[-1].wall_s / 2
                       < seconds):
        runs.append(Invocation(binary, scn, seed, scenarios, reference,
                               rundir, len(runs) + 1))
    for i, r in enumerate(runs, 1):
        log(f"run {i}: wall {r.wall_s:.3f}s setup {r.setup_s or 0:.3f}s "
            f"cpu {r.cpu_s:.3f}s rss {r.peak_rss_mib:.1f}MiB trials {r.trials} "
            f"cores_busy {r.cpu_s / r.wall_s:.2f} errors {len(r.errors)}")
        for e in r.errors[:5]:
            log(f"  error: {e}")
    for e in warm.errors[:5]:
        log(f"  warm-up error: {e}")
    row_ms = [ms for r in runs for ms in r.row_ms] or [0.0]
    metrics = {
        "trials_per_s": median([r.trials_per_s for r in runs]),
        "setup_s": median([r.setup_s or 0.0 for r in runs]),
        "cpu_s": median([r.cpu_s for r in runs]),
        "peak_rss_mib": median([r.peak_rss_mib for r in runs]),
        "job_p50_ms": percentile(row_ms, 50),
        "job_p90_ms": percentile(row_ms, 90),
    }
    failed = sum(1 for r in runs if r.errors)
    return (metrics, len(runs), failed, not warm.errors,
            job_note(row_ms, "scenario rows"))


def job_note(samples, what):
    p, value = measure.tail_percentile(samples)
    tail = (f"highest percentile with ten samples beyond: p{p:g} = "
            f"{value:.1f} ms" if p else "fewer than eleven samples")
    return (f"job latency over {len(samples)} {what}; p90 has "
            f"{measure.beyond(samples, 90)} samples beyond it; {tail}")


# ---- serve-mixed -------------------------------------------------------------

def serve_session(binary, clients, seconds, reference, workdir, on_end=None):
    """Runs `clients` against a fresh daemon in `workdir`, then stops the
    daemon. Returns (daemon, exit code, jobs, journal bytes, STATS ms)."""
    daemon = serveload.Daemon(binary, workdir, nproc())
    if daemon.setup_s is None:
        daemon.stop()
        raise RuntimeError("daemon did not answer HELLO")
    try:
        load = serveload.Load(daemon, clients, reference, on_end)
        jobs = load.run(seconds)
        journal = daemon.journal_bytes()
    finally:
        code = daemon.stop()
    if code != 0:
        log(f"  error: daemon exit {code}")
    return daemon, code, jobs, journal, load.stats_ms


def run_serve(binary, seed, seconds, reference, rundir, stats_every=0):
    setups = []
    for k in range(SETUP_PROBES):
        probe = serveload.Daemon(binary, os.path.join(rundir, f"probe{k}"),
                                 nproc())
        if probe.setup_s is not None:
            setups.append(probe.setup_s)
        probe.stop()
    # The daemon keeps finished jobs, so its RSS grows with the jobs run.
    # peak_rss_mib is therefore read at a fixed amount of work: the peak RSS
    # when the RSS_AT_LIGHT_JOB-th light job ends.
    light_ended, rss = [], []

    def on_end(job, daemon):
        if job.kind == "light":
            light_ended.append(job)
            if len(light_ended) == RSS_AT_LIGHT_JOB:
                rss.append(measure.vm_hwm_mib(daemon.child.proc.pid))

    clients = serveload.mixed_clients(max(2, nproc()), seed, stats_every)
    daemon, code, jobs, journal, stats_ms = serve_session(
        binary, clients, seconds, reference, os.path.join(rundir, "daemon"),
        on_end)
    setups.append(daemon.setup_s)
    t_last = max(j.t_end for j in jobs if j.t_end is not None)
    wall = t_last - daemon.child.t0
    light = [j for j in jobs if j.kind == "light"]
    # Warm-up: the first light job of the run is discarded (not measured,
    # still checked).
    warm, measured = light[0], light[1:]
    failed = [j for j in jobs if j is not warm and j.errors]
    lat = [j.latency_ms for j in measured if not j.errors] or [0.0]
    trials = sum(j.trials for j in jobs if j.state == "done")
    metrics = {
        "trials_per_s": trials / wall,
        "setup_s": median(setups),
        "cpu_s": daemon.child.cpu_s,
        "peak_rss_mib": rss[0] if rss else daemon.child.peak_rss_mib,
        "job_p50_ms": percentile(lat, 50),
        "job_p90_ms": percentile(lat, 90),
    }
    log(f"daemon: wall {wall:.3f}s cpu {daemon.child.cpu_s:.3f}s "
        f"rss {daemon.child.peak_rss_mib:.1f}MiB at exit, "
        + (f"{rss[0]:.1f}MiB at light job {RSS_AT_LIGHT_JOB}"
           if rss else f"only {len(light)} light jobs ran") +
        f"; exit {code} cores_busy {daemon.child.cpu_s / wall:.2f}")
    log(f"jobs: {len(jobs) - 1} measured ({len(measured)} light), "
        f"{len(failed)} failed, trials {trials}; setup samples "
        + " ".join(f"{s * 1e3:.1f}ms" for s in setups))
    for j in failed[:5]:
        log(f"  error: {j.kind} job {j.id}: {'; '.join(j.errors[:3])}")
    warm_ok = not warm.errors and code == 0
    note = job_note(lat, "light jobs")
    detail = {"jobs": jobs, "journal": journal, "trials": trials,
              "stats_ms": stats_ms, "t0": daemon.child.t0}
    return (metrics, len(jobs) - 1, len(failed), warm_ok, note, detail)


# ---- traced run -------------------------------------------------------------

def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it its
    child spans cover, summed over the spans of a layer."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = {layer: 0.0 for layer in set(LAYER_OF.values())}
    for i, s in enumerate(spans):
        layer = LAYER_OF.get(s["name"].split(".", 1)[0])
        if layer is None:
            continue
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(i, []), key=lambda k: spans[k]["start"]):
            lo, hi = max(spans[c]["start"], cursor), min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[layer] += (s["end"] - s["start"]) - covered
    return out


def serve_spans(jobs, t0):
    """Client-side wire spans, in seconds since t0."""
    spans = []
    for j in jobs:
        if j.t_end is None or j.t_ok is None:
            continue
        parent = len(spans)
        spans.append({"name": "serve.job", "start": j.t_submit - t0,
                      "end": j.t_end - t0, "parent": -1})
        first = j.t_first_trial or j.t_end
        for name, a, b in (("serve.submit", j.t_submit, j.t_ok),
                           ("serve.queue_wait", j.t_ok, first),
                           ("serve.stream", first, j.t_end)):
            spans.append({"name": name, "start": a - t0, "end": b - t0,
                          "parent": parent})
    return spans


def serve_metrics(jobs, journal, trials, stats_ms):
    ok = [j for j in jobs if j.t_ok is not None and j.t_end is not None]
    submit = [(j.t_ok - j.t_submit) * 1e3 for j in ok] or [0.0]
    wait = [((j.t_first_trial or j.t_end) - j.t_ok) * 1e3 for j in ok] or [0.0]
    stream = [(j.t_end - (j.t_first_trial or j.t_end)) * 1e3 for j in ok]
    return {
        "serve.submit_ms_p50": percentile(submit, 50),
        "serve.submit_ms_p90": percentile(submit, 90),
        "serve.queue_wait_ms_p50": percentile(wait, 50),
        "serve.queue_wait_ms_p90": percentile(wait, 90),
        "serve.stream_ms": median(stream or [0.0]),
        "serve.stats_ms": median(stats_ms or [0.0]),
        "serve.journal_bytes_per_trial": journal / max(trials, 1),
        "serve.busy_replies": float(sum(j.reply == "BUSY" for j in jobs)),
    }


def run_traced(binary, tracer, workload, seed, seconds, reference, rundir,
               spans_path):
    scenarios = workloads.SCENARIOS[workload](nproc())
    scn = os.path.join(rundir, f"{workload}.scn")
    write_scenarios(scn, scenarios)
    errors = []

    untraced = Invocation(binary, scn, seed, scenarios, reference, rundir, 0)
    errors += untraced.errors
    log(f"untraced run: wall {untraced.wall_s:.3f}s trials/s "
        f"{untraced.trials_per_s:.2f} cores_busy "
        f"{untraced.cpu_s / untraced.wall_s:.2f}")

    make, core_graph, walk = workloads.trace_plan(workload)
    out_json = os.path.join(rundir, "layers.json")
    t_tracer = time.monotonic()
    child = Child([tracer, f"--scenario={scn}", f"--seed={seed}",
                   f"--jobs={nproc()}", f"--out={out_json}",
                   "--make=" + ";".join(make), f"--core-graph={core_graph}",
                   "--walk-graphs=" + ";".join(walk)],
                  stderr_path=os.path.join(rundir, "tracer.err"))
    if child.wait() != 0:
        with open(os.path.join(rundir, "tracer.err"), errors="replace") as f:
            errors.append(f"perf_layers exit {child.exit_code}: {f.read()[-500:]}")
    layers = {"metrics": {}, "spans": []}
    if os.path.isfile(out_json):
        with open(out_json) as f:
            layers = json.load(f)
    metrics = dict(layers["metrics"])
    spans = layers["spans"]

    if workload == "serve-mixed":
        _, _, failed, warm_ok, _, d = run_serve(
            binary, seed, min(seconds, 10), reference,
            os.path.join(rundir, "serve"), stats_every=4)
        if failed or not warm_ok:
            errors.append(f"serve-mixed: {failed} failed jobs")
        jobs, journal, trials, stats_ms, t0 = (d["jobs"], d["journal"],
                                               d["trials"], d["stats_ms"], d["t0"])
    else:
        daemon, code, jobs, journal, stats_ms = serve_session(
            binary, [serveload.file_client(scenarios, seed)], seconds,
            reference, os.path.join(rundir, "trace-daemon"))
        errors += [e for j in jobs for e in j.errors]
        if code != 0:
            errors.append(f"trace daemon exit {code}")
        trials, t0 = jobs[0].trials, daemon.child.t0
    metrics.update(serve_metrics(jobs, journal, trials, stats_ms))
    # Tracer spans count from the tracer's launch; put the wire spans on
    # the same clock.
    offset, base = t0 - t_tracer, len(spans)
    for s in serve_spans(jobs, t0):
        spans.append({**s, "start": s["start"] + offset,
                      "end": s["end"] + offset,
                      "parent": s["parent"] + base if s["parent"] >= 0 else -1})
    metrics.update({f"self_s.{k}": v for k, v in self_times(spans).items()})
    metrics["pool.cores_busy"] = untraced.cpu_s / untraced.wall_s
    metrics["trace.untraced_trials_per_s"] = untraced.trials_per_s
    with open(spans_path, "w") as f:
        json.dump(spans, f)
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        errors.append(f"missing per-layer metrics: {', '.join(missing)}")
    log(f"traced trials/s {metrics.get('trace.trials_per_s', 0):.2f} vs "
        f"untraced {untraced.trials_per_s:.2f}; serve BUSY replies "
        f"{metrics['serve.busy_replies']:.0f}")
    for e in errors[:8]:
        log(f"  error: {e}")
    return ({k: metrics.get(k, 0.0) for k in PER_LAYER}, 1, 1 if errors else 0,
            not errors)


# ---- main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail_usage("--seed must be >= 0 and --seconds > 0")

    run_root = ".bench_run"
    binary, tracer, build_type = build(run_root)
    meta = host_meta(args.seed, build_type)
    reference = load_reference()
    rundir = os.path.join(run_root, f"{args.workload}-{args.seed}-"
                                    f"{args.trace}-{os.getpid()}")
    os.makedirs(rundir)
    results_dir = os.path.join(run_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(results_dir, os.path.basename(rundir))
    log(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    log("host " + json.dumps(meta))
    note = None
    try:
        if args.trace:
            metrics, attempted, failed, warm_ok = run_traced(
                binary, tracer, args.workload, args.seed, args.seconds,
                reference, rundir, result_path + ".spans.json")
            units = PER_LAYER
        elif args.workload == "serve-mixed":
            metrics, attempted, failed, warm_ok, note, _ = run_serve(
                binary, args.seed, args.seconds, reference, rundir)
            units = END_TO_END
        else:
            metrics, attempted, failed, warm_ok, note = run_oneshot(
                binary, args.workload, args.seed, args.seconds, reference,
                rundir)
            units = END_TO_END
    finally:
        Child.kill_all()
        shutil.rmtree(rundir, ignore_errors=True)
    if note:
        log(note)
    for name, unit in units.items():
        log(f"{name:40s} {metrics[name]:14.6g} {unit}")
    log(f"{'fail_ratio':40s} {failed / attempted:14.6g} ratio "
        f"({failed}/{attempted})")
    result = {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(result_path + ".json", "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace,
                   "host": meta, **result}, f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
