#!/usr/bin/env python3
"""Builds and runs the RBAY benchmark.

    python3 perfbench/run.py --workload <tcp-walk|tcp-frontdoor-rw|sim-geo8> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the repository root (or any checkout of it). It builds the
release `rbay-node` daemon from the workspace and the `perfbench` package
next to this file, into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs the benchmark with its output files under `.bench_out/`. Standard
output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. The exit code is the benchmark's: 0 on a correct run, 1 when a
correctness check failed, 2 when the build or set-up failed.

The benchmark runs in its own process group; whatever is left of it when
it exits (daemons included) is killed before this script returns.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "rbay-bench", "--bin", "rbay-node"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.call(cmd, env=env, stdout=sys.stderr, cwd=ROOT) != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = {".git", "target", ".bench_build", ".bench_out"}
    for base in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(ROOT, base)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in skip)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def reap_group(pgid):
    """Kills every process left in the group and waits until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"processes of group {pgid} still present after SIGKILL")


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    binary = os.path.join(target_dir(), "release", "perfbench")
    node = os.path.join(target_dir(), "release", "rbay-node")
    cmd = [binary, *args, "--node-bin", node,
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--rev", revision()]
    if shutil.which("taskset"):
        cmd += ["--sut-cpus", ",".join(map(str, sorted(os.sched_getaffinity(0))))]
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killing it")
        code = 3
    finally:
        reap_group(child.pid)
        child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
