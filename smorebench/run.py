#!/usr/bin/env python3
"""Build and run the smore repository benchmark.

    python3 smorebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 smorebench/run.py --selftest

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark binary (smorebench/CMakeLists.txt) into
$CARGO_TARGET_DIR/smorebench (default .bench_build/smorebench); later runs
only re-check the build. The binary then runs pinned to the workload's CPU
set from smorebench/protocol.json. Build output goes to stderr; stdout
carries the binary's lines, the last of which is the JSON result. The result
is checked against BENCHMARK.json (its metric names for this --trace mode)
before it is printed. Exit code: the binary's (0 ok, 2 an output check
failed), or 1 when the build, the binary or the result check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"smorebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = pathlib.Path.cwd() / path
    return path / "smorebench"


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no smore source tree at {ROOT}: nothing to build")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def source_id():
    """git SHA when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def pinned_cpus(count):
    """The first `count` CPUs this process may run on (all when count is 0)."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[:count]) if count else set(allowed)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the binary's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-test only")
    args = ap.parse_args()

    if args.selftest:
        out = build(["smorebench_selftest"])
        sys.exit(subprocess.run([str(out / "smorebench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    protocol = json.loads((BENCH_DIR / "protocol.json").read_text())
    params = protocol["workloads"].get(args.workload)
    if params is None:
        fail(f"unknown workload {args.workload}")
    out = build(["smorebench"])
    cpus = pinned_cpus(int(params.get("cpus", 0)))
    cmd = [str(out / "smorebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--protocol", str(BENCH_DIR / "protocol.json"),
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        fail(f"the binary exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 2) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"the binary exited with {proc.returncode} and no result")
    check_result(lines[-1], args.trace == 1)
    print(f"cpus {sorted(cpus)}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
