#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload wire_features --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Configures and builds perfbench/ (which
builds librepro from the checkout's src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the perfbench binary from the
checkout root. Build output goes to stderr; the benchmark's stdout is passed
through, so its last line is the result object. Exits non-zero when the build
fails, the benchmark fails, or it does not finish in time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170  # the benchmark must exit within 180 s


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_features", "paper_source", "offline_tu"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        # subprocess.run has killed the benchmark and waited for it.
        out = err.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        print("perfbench: timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return run.returncode or 1
    result = json.loads(lines[-1])
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
