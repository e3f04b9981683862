#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, print its result.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds nf_run and the benchmark binary
from source in the release profile into .bench_build/ (dune's shared
cache is disabled, so nothing is written outside the checkout), runs
perfbench/nf_perfbench.exe in its own process group, and passes its
standard output through: the last line is the result object. Records
and span files go to .bench_build/perfbench/. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-churn", "fluid-cold", "packet-fabric")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources the benchmark builds, so records taken
    outside a git checkout still identify the code they measured."""
    h = hashlib.sha256()
    paths = ["dune-project", "dune"]
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p) and not p.endswith(".pyc"):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(pgid):
    """Kill whatever is left in the run's process group and wait until it
    is empty."""
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


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = shutil.which("dune")
    if dune is None:
        # not in an opam environment: fall back to an opam switch's bin,
        # which also holds the compilers dune needs on PATH
        opam_root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
        found = sorted(glob.glob(os.path.join(opam_root, "*", "bin", "dune")))
        if not found:
            fail("dune is not on PATH and no opam switch has it")
        dune = found[0]
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--cache", "disabled", "./perfbench/nf_perfbench.exe", "./bin/nf_run.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    out_dir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", "nf_perfbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--daemon", os.path.join(BUILD_DIR, "default", "bin", "nf_run.exe"),
        "--out-dir", out_dir, "--rev", git_rev(), "--src-digest", source_digest(),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
