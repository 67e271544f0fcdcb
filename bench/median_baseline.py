#!/usr/bin/env python3
"""Merge repeated runs of one micro harness into a calibrated baseline.

    median_baseline.py --reference-commit SHA OUT.json RUN.json [RUN.json ...]

Each RUN.json is a BENCH_micro_*.json written by one run of the harness
(bench/micro_main.hpp) built from the reference commit. For every
benchmark the output keeps the row of the run whose real_ns / cal_ns is
the median over the runs (the lower middle for an even count), so no run
is picked by hand and every stored row is one that was measured. The
config names the reference commit and the number of runs; the gate
(perf_gate.cpp) compares real_ns / cal_ns against it.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference-commit", required=True)
    parser.add_argument("out")
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()

    docs = [json.load(open(path)) for path in args.runs]
    for key in ("calibration_kernel", "build"):
        values = {doc["config"].get(key) for doc in docs}
        if len(values) != 1 or None in values:
            sys.exit(f"runs must all carry the same {key}")

    rows = []
    for first in docs[0]["runs"]:
        name = first["name"]
        found = []
        for path, doc in zip(args.runs, docs):
            match = [r for r in doc["runs"] if r["name"] == name]
            if not match or "cal_ns" not in match[0]:
                sys.exit(f"{path}: no calibrated row {name}")
            found.append(match[0])
        found.sort(key=lambda r: r["real_ns"] / r["cal_ns"])
        rows.append(found[(len(found) - 1) // 2])

    config = dict(docs[0]["config"])
    config["reference_commit"] = args.reference_commit
    config["reference_runs"] = len(docs)
    out = {"bench": docs[0]["bench"], "config": config, "runs": rows}
    with open(args.out, "w") as f:
        f.write(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
