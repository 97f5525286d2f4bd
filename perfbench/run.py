#!/usr/bin/env python3
"""Build the dphsrc benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-durable --seed 7 --seconds 20 --trace 0

The Go program is built into .bench_build/ with its build cache there
too, so the run reads and writes nothing outside the checkout except the
Go toolchain itself. The program's standard output is passed through;
its last line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

# The first build of a fresh checkout compiles the module; later builds
# hit the cache in .bench_build.
BUILD_TIMEOUT_S = 840
# A run must end within 180 s; the program stops measuring after
# --seconds and checks its outputs, so this is only a guard.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    for need in ("go.mod", "internal", "dphsrc.go"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found in {root}: run from the dphsrc repository root")
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        rev = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()

    cmd = [binary,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-commit", commit,
           "-state-dir", os.path.join(build, "state")]
    if args.trace == 1:
        cmd += ["-trace-out", os.path.join(build, "traces", f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
