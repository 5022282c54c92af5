#!/usr/bin/env python3
"""Builds and runs the skalla benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload rpc_resident --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a source checkout. The first run configures and
builds the skalla library, skalla-site and the driver into .bench_build/
(or $CARGO_TARGET_DIR when it points inside the checkout); later runs
rebuild incrementally. The driver's output is passed through: the last
line of stdout is the JSON result. Every run also leaves a record under
.bench_build/results/.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_resident", "rpc_paged", "serve_mixed")
# A run must end within 180 s; the driver gets this long after the build.
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if target:
        path = os.path.realpath(os.path.join(ROOT, target))
        if path.startswith(os.path.realpath(ROOT) + os.sep):
            return path
    return os.path.join(ROOT, ".bench_build")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(out_dir):
    """Configures and builds the driver and skalla-site; returns bin dir."""
    for needed in ("src/CMakeLists.txt", "tools/skalla_site.cc",
                   "bench/bench_common.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("not a skalla source checkout (missing %s)" % needed)
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "skalla-perfbench", "skalla-site"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                fail("build failed; see " + log_path, 1)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    out_dir = build_root()
    bin_dir = build(out_dir)
    tag = "%s-%s-seed%d-trace%d" % (args.workload, args.scale, args.seed,
                                    args.trace)
    work_dir = os.path.join(out_dir, "runs", "%s-%d" % (tag, os.getpid()))
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    command = [os.path.join(bin_dir, "skalla-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale,
               "--site-bin", os.path.join(bin_dir, "skalla-site"),
               "--work-dir", work_dir,
               "--results", os.path.join(results_dir, tag + ".json"),
               "--commit", source_revision()]
    # Own process group: a timeout or a signal takes the sites down too.
    driver = subprocess.Popen(command, start_new_session=True)

    def kill_group():
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        # The sites are reaped by init once the driver is gone; wait until
        # none of the group is left.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(driver.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def stop(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = driver.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("driver exceeded %d s and was killed" % DRIVER_TIMEOUT_S, 1)
    spans = os.path.join(work_dir, "spans.json")
    if os.path.isfile(spans):
        shutil.move(spans, os.path.join(results_dir, tag + "-spans.json"))
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
