"""Workload definitions: the scenario lines each workload feeds rumor_run.

Scenario scalars are written as plain integers (scalar `n=1m` is rejected
by the spec grammar; only sweep ranges take k/m suffixes). The benchmark
seed reaches the program only as `--seed=` (one-shot) or as `seed=` in the
scenario text (served jobs).
"""

from dataclasses import dataclass

PROTOCOLS = ("push", "push-pull", "visit-exchange", "meet-exchange", "hybrid")

WHY = {
    "paper-sweep": "many small trials on the Fig. 1 families and a Theorem 1 "
                   "expander: load on the trial scheduler, trial arenas and "
                   "the serial round kernels",
    "huge-graph": "a few trials on million-vertex graphs: load on graph "
                  "build, set-up, the walk kernel and the sharded round "
                  "engines; the trial queue is nearly bypassed",
    "serve-mixed": "a served daemon under a closed loop of light jobs beside "
                   "one long-tail client: fair-share queue, journal and "
                   "result streaming",
}


@dataclass(frozen=True)
class Scenario:
    graph: str
    protocol: str
    source: int
    trials: int

    def line(self, seed=None):
        text = f"{self.graph} {self.protocol} trials={self.trials}"
        if seed is not None:
            text += f" seed={seed}"
        return f"{text} source={self.source}"

    @property
    def key(self):
        """Reference key: the distribution does not depend on the engine
        width, so `shards=` is dropped."""
        return f"{self.graph} {strip_shards(self.protocol)} source={self.source}"


def strip_shards(protocol):
    head, _, rest = protocol.partition("(")
    if not rest:
        return protocol
    keys = [kv for kv in rest.rstrip(")").split(",")
            if not kv.startswith("shards=")]
    return f"{head}({','.join(keys)})" if keys else head


def paper_sweep(nproc):
    """The five Fig. 1 families at three mid sizes with the paper's leaf
    sources, plus the Theorem 1 expander, under all five round simulators."""
    graphs = []
    for leaves in (2048, 4096, 8192):
        graphs.append((f"star(leaves={leaves})", 1, 40))
    for leaves in (1024, 2048, 4096):
        graphs.append((f"double_star(leaves={leaves})", 2, 40))
    for n in (511, 1023, 2047):
        graphs.append((f"heavy_tree(n={n})", n - 1, 20))
    for n in (255, 511, 1023):
        graphs.append((f"siamese(n={n})", n - 1, 20))
    for k in (8, 10, 12):
        graphs.append((f"cycle_stars_cliques(k={k})", k + k * k, 40))
    graphs.append(("random_regular(n=65536,d=16)", 0, 16))
    return [Scenario(g, p, s, t) for g, s, t in graphs for p in PROTOCOLS]


def huge_graph(nproc):
    """Million-vertex graphs with a few trials each, on the sharded engines
    at one shard per core."""
    w = f"(shards={nproc})"
    return [
        Scenario("star(leaves=1048576)", "visit-exchange" + w, 1, 2),
        Scenario("star(leaves=1048576)", "meet-exchange" + w, 1, 2),
        Scenario("hypercube(dim=19)", "push-pull" + w, 0, 2),
        Scenario("random_regular(n=524288,d=8)", "visit-exchange" + w, 0, 2),
    ]


def light_job():
    """The five-scenario job every light serve client loops over."""
    return [
        Scenario("star(leaves=1024)", "push-pull", 1, 8),
        Scenario("double_star(leaves=512)", "visit-exchange", 2, 8),
        Scenario("heavy_tree(n=255)", "meet-exchange", 254, 8),
        Scenario("cycle_stars_cliques(k=6)", "hybrid", 42, 8),
        Scenario("random_regular(n=4096,d=8)", "push", 0, 8),
    ]


def heavy_jobs():
    """Long-tail jobs the heavy serve client alternates between."""
    return [
        [Scenario("star(leaves=8192)", "push", 1, 40)],
        [Scenario("siamese(n=1023)", "visit-exchange", 1022, 20)],
    ]


def serve_mixed(nproc):
    """Every scenario a serve-mixed run submits (one-shot file for the
    traced run's untraced baseline and for the in-process tracer)."""
    out = list(light_job())
    for job in heavy_jobs():
        out.extend(job)
    return out


SCENARIOS = {
    "paper-sweep": paper_sweep,
    "huge-graph": huge_graph,
    "serve-mixed": serve_mixed,
}


# Graphs the traced run hands to perf_layers, per workload: one instance of
# each family timed through GraphSpec::make (the workload's own where it has
# one), the graph the core kernels are timed on (from vertex 0), and the walk
# graphs.
def trace_plan(workload):
    make = {
        "paper-sweep": ["random_regular(n=65536,d=16)", "hypercube(dim=16)",
                        "heavy_tree(n=2047)", "siamese(n=1023)"],
        "huge-graph": ["random_regular(n=524288,d=8)", "hypercube(dim=19)",
                       "heavy_tree(n=2047)", "siamese(n=1023)"],
        "serve-mixed": ["random_regular(n=4096,d=8)", "hypercube(dim=12)",
                        "heavy_tree(n=255)", "siamese(n=1023)"],
    }[workload]
    core = {
        "paper-sweep": "random_regular(n=65536,d=16)",
        "huge-graph": "hypercube(dim=19)",
        "serve-mixed": "random_regular(n=4096,d=8)",
    }[workload]
    walk = {
        "paper-sweep": ["siamese(n=1023)", "random_regular(n=65536,d=16)"],
        "huge-graph": ["star(leaves=1048576)", "hypercube(dim=19)",
                       "random_regular(n=524288,d=8)", "siamese(n=1023)"],
        "serve-mixed": ["siamese(n=1023)", "random_regular(n=4096,d=8)"],
    }[workload]
    return make, core, walk
