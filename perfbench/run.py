#!/usr/bin/env python3
"""Build and run the LiPS benchmark.

    python3 perfbench/run.py --workload swim-day --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds the
repository's libraries, lipsd and the perfbench harness (CMake, Release)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr; stdout carries the
harness's report, whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes a Chrome trace under <build>/traces/. `--self-test` builds and runs
the tests of the benchmark's own arithmetic. perfbench/README.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swim-day", "swim-exact", "lipsd-tenants")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir, env, targets):
    """Configure once, then build the named targets; returns on success."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j4", "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, env=env,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def expected_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_test and (a.seed < 0 or a.seconds < 1):
        p.error("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the program from the checkout it sits in.
    for need in ("src/CMakeLists.txt", "tools/lipsd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no LiPS sources here (missing %s); run from a checkout"
                 % need, 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)

    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compilers write their temporaries here

    if a.self_test:
        build(bdir, env, ["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_test")],
                                env=env).returncode)

    build(bdir, env, ["perfbench", "lipsd"])
    # A short relative run directory keeps lipsd's unix socket path within
    # the 108-byte limit wherever the checkout lives.
    run_dir = os.path.relpath(os.path.join(bdir, "r%d" % os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_out = os.path.join(bdir, "traces",
                             "%s-seed%d.json" % (a.workload, a.seed))
    cmd = [os.path.join(bdir, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--lipsd", os.path.join(bdir, "lipsd"),
           "--run-dir", run_dir, "--trace-out", trace_out]
    # Own process group: a timeout takes lipsd down with the harness.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no result line")

    want = expected_names("per_layer" if a.trace else "end_to_end")
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
