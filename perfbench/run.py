#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, and runs the benchmark's own tests once per build. Every call then
runs the perfbench binary, checks that it reported exactly the metrics
BENCHMARK.json declares for the mode (end_to_end untraced, per_layer
traced), prints an environment stamp line and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A traced run leaves its spans in <build dir>/spans/<workload>.tsv.

Exits non-zero, without a result, when the sources are missing, the build
or the tests fail, or the output does not match BENCHMARK.json; exits 1
after printing a result whose correctness checks failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO, target)


def jobs():
    return str(max(1, len(os.sched_getaffinity(0))))


def build():
    """Configures and builds the benchmark; runs its tests after a build
    that changed the test binary."""
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail("repository file missing: " + needed)
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs(),
                  "--target", "perfbench", "perfbench_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    test = os.path.join(out, "perfbench_test")
    stamp = os.path.join(out, "perfbench_test.passed")
    if (not os.path.exists(stamp) or
            os.path.getmtime(stamp) < os.path.getmtime(test)):
        if subprocess.run([test], stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            fail("benchmark self-tests failed", 3)
        with open(stamp, "w") as f:
            f.write("ok\n")
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "cmake"):
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(REPO, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # Only the latest traced run of each workload is kept.
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail("perfbench exited with %d" % run.returncode, 4)
    result = json.loads(lines[-1])
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        sys.stdout.write(run.stdout)
        fail("reported metrics differ from BENCHMARK.json: %s" %
             sorted(set(reported.items()) ^ set(declared.items())), 4)

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"source_sha256": source_digest(),
                      "git_commit": git_commit()}))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
