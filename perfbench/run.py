#!/usr/bin/env python3
"""Builds the NOPE benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
benchmark into .bench_build/perfbench (the repository's src/ libraries plus
the two programs in this directory); later runs only re-check the build.

--trace 0 runs the untraced end-to-end program (nope_bench) on the named
workload and prints the end-to-end metrics. --trace 1 runs the traced
program (nope_bench_trace), which drives every layer once under spans,
prints the per-layer metrics and writes the spans to
.bench_build/traces/<workload>-<seed>.json.

The last line of stdout is the result object; everything else (build output,
progress, failed checks) goes to stderr. The program runs with
NOPE_THREADS=1 and NOPE_SIMD unset (automatic backend choice).
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("rotation", "handshake", "renewal_sweep", "fleet")
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over the benchmark and src/ files, standing in for the commit
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest(root)


def build(root, build_dir, target):
    def step(cmd):
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "--target", target, "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/CMakeLists.txt not found)")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    target = "nope_bench_trace" if args.trace else "nope_bench"
    binary = build(root, build_dir, target)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))]

    env = dict(os.environ)
    env["NOPE_THREADS"] = "1"
    env.pop("NOPE_SIMD", None)
    env["NOPE_BENCH_COMMIT"] = commit_id(root)
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (target, RUN_TIMEOUT_S))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
