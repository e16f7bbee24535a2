#!/usr/bin/env python3
"""Build and run the xmlrel benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs one measurement, and relays its output; the
last line of standard output is the result JSON.  Everything the run
writes stays under .bench_build/.  Exits non-zero, without a result, when
the sources are missing or the build fails, and with the benchmark's own
code when a check fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BUILD = os.path.join(".bench_build", "perfbench")
# Compilers and the benchmark keep their temporary files in the checkout.
TMP = os.path.join(".bench_build", "tmp")
BINARY = os.path.join(BUILD, "xrbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    return dict(os.environ, TMPDIR=os.path.abspath(TMP))


def build():
    """Configure once, then let the build tool decide what is stale.
    A lock keeps concurrent runs in one checkout from building together."""
    for path in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(path):
            fail(f"{path} not found; run from the root of an xmlrel checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "xrbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env())
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(".bench_build", f"run-{os.getpid()}")
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
