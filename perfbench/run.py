#!/usr/bin/env python3
"""parowl end-to-end benchmark: build, prepare inputs, run one workload.

    python3 perfbench/run.py --workload lubm-cluster --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The program is built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build).  Inputs derived from the seed
(the LUBM-500 closure snapshot, the single-store references) are built by a
separate `perfbench prepare` process, so their memory never shows in the
measured run, and cached per seed under the build directory.  The last line
of standard output is the JSON result; see perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {
    "lubm-cluster": "lubm",
    "uobm-closure": "uobm",
    "lubm-serve": "lubm",
    "lubm-serve-dist": "lubm",
}
BUILD_TIMEOUT = 700
# Preparing inputs and running share one budget per invocation, counted
# from the end of the build.
RUN_BUDGET = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    """Configure once, then build (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("parowl sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", out, "-j", "4"], "build")


def run_quiet(cmd, what):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(what + " failed")


def data_dir(out, binary):
    """Prepared inputs are only valid for the binary that made them."""
    st = os.stat(binary)
    return os.path.join(out, "perfbench-data",
                        "%d-%d" % (st.st_size, st.st_mtime_ns))


def prepare(binary, kind, seed, data, deadline):
    ref = os.path.join(data, "%s-%d.ref" % (kind, seed))
    if os.path.isfile(ref):
        return
    cmd = [binary, "prepare", kind, "--seed", str(seed), "--data-dir", data]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("prepare %s timed out" % kind)
    if proc.returncode != 0 or not os.path.isfile(ref):
        sys.stderr.write(proc.stdout[-4000:])
        fail("prepare %s failed" % kind)


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    return left


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own helper tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                cwd=ROOT, timeout=RUN_BUDGET).returncode)

    deadline = time.monotonic() + RUN_BUDGET
    binary = os.path.join(out, "perfbench")
    data = data_dir(out, binary)
    prepare(binary, WORKLOADS[args.workload], args.seed, data, deadline)
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", data,
           "--work-dir", os.path.join(out, "perfbench-work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("run failed with exit code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
