#!/usr/bin/env python3
"""Builds crowdeval and the perfbench driver from this checkout and runs
one benchmark workload.

    python3 perfbench/run.py --workload ingest --seed 7 --seconds 25 --trace 0

Workloads: ingest, mixed, batch_binary, batch_kary. With --trace 1 the
traced run replays every workload in-process and prints the per-layer
metrics instead of the end-to-end ones. The last line of standard output
is the result object; see perfbench/README.md.

The build goes to .bench_build/ at the root of the checkout (configure
and compile on the first run, a no-op check afterwards). Exits non-zero
without a result line when the sources are missing or the build fails.
"""

import argparse
import fcntl
import glob
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ("ingest", "mixed", "batch_binary", "batch_kary")
# A run measures for --seconds; set-up, reference checks and the final
# EVAL_ALL come on top. Past this the run is killed and fails.
RUN_TIMEOUT_S = 170

# Children started in process groups of their own, so that a timeout or
# a signal to this script stops everything they started (daemons, batch
# children, compilers).
_running = []


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Kills what is left in proc's group and waits until it is empty."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        try:
            # Reap the group leader without Popen.wait(): a signal handler
            # may run while communicate() holds Popen's wait lock.
            os.waitpid(proc.pid, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.05)
    # Run directories of a killed driver are named after its pid.
    for path in glob.glob(os.path.join(BUILD_ROOT, "runs",
                                       "*-%d-*" % proc.pid)):
        shutil.rmtree(path, ignore_errors=True)


def on_signal(signum, _frame):
    for proc in list(_running):
        stop_group(proc)
    fail("stopped by signal %d" % signum)


def run_group(cmd, timeout=None, **kwargs):
    """Runs cmd in its own process group; returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    _running.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("%s exceeded %d s" % (os.path.basename(cmd[0]), timeout))
    stop_group(proc)
    _running.remove(proc)
    return proc.returncode, out


def build():
    """Configures once and (re)builds perfbench and crowdevald."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("crowdeval sources not found next to perfbench/", 3)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                      "crowdevald", "-j", jobs])
        for step in steps:
            code, _ = run_group(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log in %s)" % log_path)
    return (os.path.join(CMAKE_DIR, "perfbench"),
            os.path.join(CMAKE_DIR, "crowdeval", "tools", "crowdevald"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0", 2)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    perfbench, daemon = build()
    code, out = run_group(
        [perfbench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--daemon", daemon],
        timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    if code != 0:
        fail("perfbench exited with status %d" % code)


if __name__ == "__main__":
    main()
