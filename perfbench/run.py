#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload am_dht|rma_mix|ccsd --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (and the repository's libraries from src/) into
.bench_build/perfbench under the checkout root on first use, runs one
workload, and forwards the benchmark program's report. The last stdout
line is one JSON object {correct, attempted, failed, metrics}; --trace 1
also writes the traced repetition's spans to
.bench_build/perfbench/spans-<workload>.jsonl.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("am_dht", "rma_mix", "ccsd")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(out):
    """Configure (once) and build; build output goes to stderr."""
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json, or None when absent."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in data[key]}


def check_result(line, trace):
    """Return an error string when the result line is malformed or its
    metrics differ from BENCHMARK.json; None when it is well-formed."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            return (f"metrics differ from BENCHMARK.json: "
                    f"missing {missing}, extra {extra}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    exe = out / "perfbench"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-file", str(out / f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log(f"no result line (exit code {proc.returncode})")
        return 1
    err = check_result(lines[-1], args.trace)
    if err is not None:
        sys.stderr.write(proc.stdout)
        log(err)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
