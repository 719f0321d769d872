"""Measurement primitives: child processes with their own rusage, the first
worker run of a child, the percentile rule, the output checker and the
serve-stream parser."""

import csv
import io
import math
import os
import subprocess
import threading
import time

# Tolerance of the distributional output check: a row's mean broadcast time
# passes when it lies within Z_TOL standard errors (row and reference
# combined) of the reference mean, plus REL_SLACK of it and ABS_SLACK rounds
# for graph-draw effects and integer rounds. Z_TOL = 6 keeps a false alarm
# below 1e-8 per row under the normal approximation.
Z_TOL = 6.0
REL_SLACK = 0.02
ABS_SLACK = 0.5


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, p):
    """How many samples lie strictly after the nearest-rank p-th percentile."""
    return len(values) - max(1, math.ceil(p / 100.0 * len(values)))


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER that still has at least ten
    samples beyond it, as (p, value); (None, None) below eleven samples."""
    for p in TAIL_LADDER:
        if beyond(values, p) >= 10:
            return p, percentile(values, p)
    return None, None


# ---- child processes -------------------------------------------------------

class Child:
    """One program process, reaped with wait4 so its rusage is its own
    (RUSAGE_CHILDREN would report the max RSS over every earlier child).
    stdout lines are timestamped as they arrive."""

    live = set()  # started and not yet reaped

    def __init__(self, argv, cwd=None, stderr_path=None):
        self.lines = []  # (monotonic seconds, text)
        self._err = open(stderr_path or os.devnull, "wb")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                     stderr=self._err, stdin=subprocess.DEVNULL)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        Child.live.add(self)
        self.t_end = None
        self.exit_code = None
        self.rusage = None

    def _read(self):
        for raw in self.proc.stdout:
            self.lines.append((time.monotonic(), raw.decode(errors="replace")))

    def wait(self):
        _, status, rusage = os.wait4(self.proc.pid, 0)
        self.t_end = time.monotonic()
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self.rusage = rusage
        Child.live.discard(self)
        self._reader.join()
        self.proc.stdout.close()
        self._err.close()
        return self.exit_code

    @classmethod
    def kill_all(cls):
        """Kills and reaps every child still running (error paths)."""
        for child in list(cls.live):
            child.proc.kill()
            child.wait()

    def exited(self):
        """True once the process has ended; does not reap it, so wait()
        still gets its rusage."""
        if self.exit_code is not None:
            return True
        info = os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    @property
    def wall_s(self):
        return self.t_end - self.t0

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mib(self):
        return peak_rss_mib(self.rusage)


def peak_rss_mib(rusage):
    """ru_maxrss is in KiB on Linux."""
    return rusage.ru_maxrss / 1024.0


def vm_hwm_mib(pid):
    """The peak RSS so far of a running process (VmHWM, in KiB)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def helper_threads_run_s(pid):
    """CPU seconds run so far by every thread of `pid` except its main
    thread, from the per-thread scheduler statistics (nanoseconds)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        if int(tid) == pid:
            continue
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread has just ended
            pass
    return total / 1e9


class FirstHelperRun:
    """Watches a child from launch until the threads other than its main
    thread have run HELPER_RUN_S of CPU between them. rumor_run's only other
    threads are its trial workers, and they sit blocked until the first
    trial is claimed, so `.s` (seconds since launch, None if it never
    happened) marks the first claim. Polls every POLL_S; stops at the mark
    or when the process is gone."""

    HELPER_RUN_S = 1e-3
    POLL_S = 5e-4

    def __init__(self, child):
        self.s = None
        self._child = child
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        pid = self._child.proc.pid
        while self._child.exit_code is None:
            try:
                run_s = helper_threads_run_s(pid)
            except (FileNotFoundError, ProcessLookupError):
                return
            if run_s >= self.HELPER_RUN_S:
                self.s = time.monotonic() - self._child.t0
                return
            time.sleep(self.POLL_S)

    def join(self):
        self._thread.join()
        return self.s


# ---- output check ------------------------------------------------------------

# Columns of a report row (`rumor_run --csv`, and the serve ROW lines).
CSV_HEADER = ("label", "graph", "protocol", "n", "m", "trials", "seed",
              "source", "mean", "stddev", "stderr", "min", "q25", "median",
              "q75", "max", "agent_mean", "informed_mean", "incomplete")


def parse_csv_row(text):
    return dict(zip(CSV_HEADER, next(csv.reader([text]))))


def read_csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_rows(rows, expected, reference):
    """Checks report rows (CSV dicts, in scenario order) against the expected
    scenarios. Returns a list of failure strings; empty means correct.

    Every expected row must be present, complete (incomplete == 0), fully
    informed (informed == n: these workloads have no interventions), and
    its mean broadcast time must lie within the statistical tolerance of the
    reference for its scenario key."""
    errors = []
    if len(rows) != len(expected):
        errors.append(f"{len(rows)} rows, expected {len(expected)}")
    for i, (row, sc) in enumerate(zip(rows, expected)):
        where = f"row {i} ({sc.graph} {sc.protocol})"
        try:
            if row["graph"] != sc.graph or row["protocol"] != sc.protocol:
                errors.append(f"{where}: got {row['graph']} {row['protocol']}")
                continue
            trials = int(row["trials"])
            n = int(row["n"])
            mean = float(row["mean"])
            if trials != sc.trials:
                errors.append(f"{where}: {trials} trials, expected {sc.trials}")
            if int(row["incomplete"]) != 0:
                errors.append(f"{where}: incomplete={row['incomplete']}")
            if float(row["informed_mean"]) != n:
                errors.append(f"{where}: informed {row['informed_mean']} != n {n}")
        except (KeyError, ValueError) as e:
            errors.append(f"{where}: malformed row ({e})")
            continue
        ref = reference.get(sc.key)
        if ref is None:
            errors.append(f"{where}: no reference for {sc.key}")
            continue
        tol = mean_tolerance(ref, trials)
        if abs(mean - ref["mean"]) > tol:
            errors.append(f"{where}: mean {mean:.3f} outside reference "
                          f"{ref['mean']:.3f} +- {tol:.3f}")
    return errors


def mean_tolerance(ref, trials):
    se = ref["sd"] * math.sqrt(1.0 / max(trials, 1) + 1.0 / ref["trials"])
    return Z_TOL * se + REL_SLACK * abs(ref["mean"]) + ABS_SLACK


# ---- serve wire stream -------------------------------------------------------

def parse_stream_line(line):
    """Parses one line of a RESULTS stream into a tuple:
      ("TRIAL", scenario, trial, rounds, agent_rounds, informed, completed)
      ("ROW", index, csv_row)
      ("END", job, state)
      ("OK", rest) / ("ERR", rest) / ("BUSY", rest)
    and anything else to ("UNKNOWN", line): a v1 client skips verbs it does
    not recognise."""
    line = line.rstrip("\r\n")
    verb, _, rest = line.partition(" ")
    try:
        if verb == "TRIAL":
            f = rest.split(" ")
            return ("TRIAL", int(f[0]), int(f[1]), float(f[2]), float(f[3]),
                    float(f[4]), f[5] == "1")
        if verb == "ROW":
            index, _, row = rest.partition(" ")
            return ("ROW", int(index), row)
        if verb == "END":
            job, _, state = rest.partition(" ")
            return ("END", int(job), state)
    except (ValueError, IndexError):
        return ("UNKNOWN", line)
    if verb in ("OK", "ERR", "BUSY"):
        return (verb, rest)
    return ("UNKNOWN", line)
