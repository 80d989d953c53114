#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload headline|campaign|serve \
        --seed N --seconds S --trace 0|1

Everything the build writes (the Go build cache, temporary files and the
binary) stays under .bench_build/ in the checkout. The benchmark needs the
repository's own Go module one directory up; without it the build fails and
this script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-trimpath", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
