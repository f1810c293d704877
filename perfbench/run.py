#!/usr/bin/env python3
"""Build the benchmark from the checkout's source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The Go toolchain's cache, the binary, the
traces and every scratch file live under .bench_build/ in the checkout; the
cache, journal and store of the sweep workloads live in a temp dir under
/dev/shm, removed before the run ends. The last line of standard output is
the benchmark's JSON result. --selftest makes a short run of every workload,
traced and untraced, and checks that each is correct, reports exactly the
metrics BENCHMARK.json names, and leaves no process, listening socket or
temp dir behind, and that sweep-fine and sweep-fleet produce identical
result bytes for one seed.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT = 840  # the first run in a checkout compiles the standard library
RUN_TIMEOUT = 170
WORKLOADS = ["report-cold", "halo-528", "sweep-fine", "sweep-fleet"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
    )
    return env


def check_checkout():
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s under %s: run from the root of a full checkout" % (need, ROOT))
    if shutil.which("go") is None:
        fail("no go toolchain on PATH")


def build(env):
    try:
        subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)


def run_binary(args, env):
    """Runs the binary as the leader of its own session. On timeout or a
    signal the whole group gets SIGTERM, then SIGKILL, and is waited for.
    Returns the exit code."""
    proc = subprocess.Popen([BINARY] + args + ["--root", ROOT], env=env, start_new_session=True)

    def stop(*_):
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop()
        print("run.py: run timed out after %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode


def session_members(sid):
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            out.append(stat.split("/")[2])
    return out


def listening():
    socks = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                for line in f.readlines()[1:]:
                    fields = line.split()
                    if len(fields) > 3 and fields[3] == "0A":
                        socks.add(fields[1])
        except OSError:
            pass
    return socks


def temp_dirs():
    return set(glob.glob("/dev/shm/perfbench-*")) | set(glob.glob(os.path.join(BUILD, "tmp", "*")))


def selftest(env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems, digests = [], {}
    for trace in (0, 1):
        for w in WORKLOADS:
            before_socks, before_dirs = listening(), temp_dirs()
            args = ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.Popen([BINARY] + args + ["--root", ROOT], env=env,
                                    start_new_session=True, stdout=subprocess.PIPE)
            out, _ = proc.communicate(timeout=RUN_TIMEOUT)
            name = "%s trace=%d" % (w, trace)
            lines = out.decode().strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(name + ": no JSON result line")
                continue
            if proc.returncode != 0 or not res["correct"] or res["failed"]:
                problems.append(name + ": incorrect result (exit %d)" % proc.returncode)
            if set(res["metrics"]) != want[trace]:
                problems.append(name + ": metrics differ from BENCHMARK.json: %s" %
                                sorted(set(res["metrics"]) ^ want[trace]))
            for line in lines:
                if line.startswith("result_sha256") and trace == 0:
                    digests[w] = line.split()[1]
            if session_members(proc.pid):
                problems.append(name + ": processes left: %s" % session_members(proc.pid))
            if listening() - before_socks:
                problems.append(name + ": listening sockets left: %s" % sorted(listening() - before_socks))
            if temp_dirs() - before_dirs:
                problems.append(name + ": temp dirs left: %s" % sorted(temp_dirs() - before_dirs))
            print("selftest: %-24s %s" % (name, "ok" if not problems else "..."), file=sys.stderr)
    if digests.get("sweep-fine") is None or digests.get("sweep-fine") != digests.get("sweep-fleet"):
        problems.append("sweep-fine and sweep-fleet result bytes differ: %s" % digests)
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    check_checkout()
    env = go_env()
    build(env)
    if a.selftest:
        return selftest(env)
    if a.workload is None:
        fail("--workload is required")
    return run_binary(["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace)], env)


if __name__ == "__main__":
    sys.exit(main())
