#!/usr/bin/env python3
"""Regenerates perfbench/reference.json: the reference mean and standard
deviation of the broadcast time of every scenario the benchmark runs.

  python3 perfbench/make_reference.py [path/to/rumor_run]

Each scenario key is run once with many trials on the serial engine (the
output check compares the sharded engines against it in distribution) and
with fresh=on for random graph families, so the reference averages over
graph draws. The seed is fixed and distinct from benchmark seeds.
"""

import csv
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 424242


def reference_trials(sc):
    n_heavy = any(s in sc.graph for s in ("1048576", "524288", "dim=19"))
    return 24 if n_heavy else 200


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else ".bench_build/rumor/rumor_run"
    keys = {}
    for build in workloads.SCENARIOS.values():
        for sc in build(4):
            keys.setdefault(sc.key, sc)
    lines = []
    for key, sc in keys.items():
        fresh = " fresh=on" if sc.graph.startswith("random_regular") else ""
        lines.append(f"{sc.graph} {workloads.strip_shards(sc.protocol)} "
                     f"trials={reference_trials(sc)} seed={SEED} "
                     f"source={sc.source}{fresh}")
    scn = ".bench_run/reference.scn"
    out = ".bench_run/reference.csv"
    os.makedirs(".bench_run", exist_ok=True)
    with open(scn, "w") as f:
        f.write("\n".join(lines) + "\n")
    subprocess.run([binary, f"--csv={out}", "--order=longest-first", scn],
                   check=True, stdout=subprocess.DEVNULL)
    ref = {}
    with open(out) as f:
        for row, key in zip(csv.DictReader(f), keys):
            assert int(row["incomplete"]) == 0, key
            ref[key] = {"mean": float(row["mean"]), "sd": float(row["stddev"]),
                        "trials": int(row["trials"])}
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(ref)} reference rows")


if __name__ == "__main__":
    main()
