#!/usr/bin/env python3
"""End-to-end benchmark of mdo-grid: the one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, on top of ../src)
into .bench_build/, runs the untraced binary (--trace 0: end-to-end
metrics) or the traced one (--trace 1: per-layer metrics), and prints as
its last line one JSON object with the metrics BENCHMARK.json names.
Per-layer metrics of a layer or backend a workload does not use read 0.
The full result (every metric, the exact work counts, the environment
stamp) is written to .bench_build/out/, with the traced run's spans.
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build" / "perfbench"
OUT = REPO / ".bench_build" / "out"
WORKLOADS = ("messaging", "cmfd_wavefront", "stencil_lossy")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build both binaries; output goes to a log file."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
         "mdo_perfbench_untraced", "mdo_perfbench_traced"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (" + " ".join(cmd[:2]) + "), see "
                     + str(log_path))


def source_id():
    """git SHA when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, check=False)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for root in (REPO / "src", HERE):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return "none (sources sha256 " + digest.hexdigest()[:16] + ")"


def run_binary(cmd):
    """Run one benchmark binary in its own process group; its output is
    forwarded. On timeout the whole group (forked PEs too) is killed."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return 1


def select(result, spec, section, required):
    """The BENCHMARK.json metrics of `section`, checked against the run."""
    chosen = {}
    measured = result["metrics"]
    for metric in spec[section]:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} != {unit}")
            chosen[name] = {"value": measured[name]["value"], "unit": unit}
        elif required:
            fail(f"end-to-end metric {name} was not measured")
        else:
            chosen[name] = {"value": 0, "unit": unit}
    return chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = OUT / f"{tag}.json"
    if out_path.exists():
        out_path.unlink()
    variant = "traced" if args.trace else "untraced"
    cmd = [str(BUILD / f"mdo_perfbench_{variant}"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out_path),
           "--git-sha", source_id()]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.json")]
    sys.stdout.flush()
    code = run_binary(cmd)
    if not out_path.exists():
        fail(f"benchmark binary exited with {code} and wrote no result")
    result = json.loads(out_path.read_text())

    section = "per_layer" if args.trace else "end_to_end"
    correct = bool(result["correct"]) and code == 0
    # A failed run (say, a hung machine the watchdog stopped) may not have
    # measured every metric; it still reports what it has.
    metrics = select(result, spec, section,
                     required=correct and not args.trace)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
