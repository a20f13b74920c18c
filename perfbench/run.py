#!/usr/bin/env python3
"""Build and run the served-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload census-explore --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's main module. This wrapper builds it into
.bench_build/ with the Go build cache, module cache and temporary files
kept under .bench_build/ as well, runs it with the given arguments, and
exits with its exit code. Without the repository's Go sources next to
perfbench/ the build fails and the wrapper exits non-zero.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def commit(root):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gomodcache", "gotmp", "config", "tmp"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    env["PERFBENCH_COMMIT"] = commit(root)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
