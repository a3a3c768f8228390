#!/usr/bin/env python3
"""Repository benchmark: builds the program and runs one workload.

    python3 perfbench/run.py --workload serve|clear-diurnal|fl-harvest \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program from ../src together with the benchmark driver (perfbench/src) into
.bench_build (or $CARGO_TARGET_DIR when set); later runs rebuild only what
changed. Every run then

  1. runs the benchmark's own helper tests (perfbench_selftest),
  2. runs the workload, whose correctness gates must pass before any number
     is printed,
  3. checks the printed metrics against BENCHMARK.json,
  4. checks that the result digest equals the one recorded by any earlier
     run of the same workload, seed and sources,

and passes the driver's output through: per-metric lines with units and
sample counts, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. Any failure exits non-zero without
that line. Span traces of --trace 1 runs land in <build>/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve", "clear-diurnal", "fl-harvest")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def source_hash():
    """Hash of the program and benchmark sources (stands in for a commit id
    where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id(sources):
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return f"{out.stdout.strip()}+src-{sources}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"src-{sources}"


def build(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    with open(log, "w") as handle:
        for step in steps:
            result = subprocess.run(step, cwd=ROOT, stdout=handle,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                handle.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                return False
    return True


def check_metrics(payload, spec, trace):
    if set(payload) != {"correct", "attempted", "failed", "metrics"}:
        return "result line has unexpected keys"
    if payload["correct"] is not True:
        return "result is not correct"
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in payload["metrics"].items()}
    if want != got:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    return None


def check_digest(out_dir, key, digest):
    """The same workload, seed and sources must always give the same digest."""
    store = out_dir / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != digest:
        return f"digest {digest} differs from an earlier run's {known[key]} ({key})"
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"{ROOT} holds no program sources (src/) or BENCHMARK.json",
                    2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = build_dir()
    if not build(out_dir):
        return fail("build failed (log in build.log of the build directory)")

    selftest = subprocess.run([str(out_dir / "perfbench_selftest")],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        return fail("benchmark helper tests failed")

    sources = source_hash()
    command = [str(out_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--commit", commit_id(sources)]
    if args.trace == "1":
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        trace_out = traces / f"{args.workload}-seed{args.seed}.csv"
        trace_out.unlink(missing_ok=True)
        command += ["--trace-out", str(trace_out)]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return fail(f"{args.workload} failed (exit {run.returncode})")

    try:
        payload = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail("the last output line is not a JSON object")
    problem = check_metrics(payload, spec, args.trace == "1")
    digests = [line.split()[-1] for line in lines if line.startswith("digest ")]
    if problem is None and len(digests) != 1:
        problem = "no result digest printed"
    if problem is None:
        problem = check_digest(out_dir, f"{sources}:{args.workload}:{args.seed}",
                               digests[0])
    if problem is not None:
        sys.stderr.write(run.stdout)
        return fail(problem)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
