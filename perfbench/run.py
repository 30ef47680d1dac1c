#!/usr/bin/env python3
"""Build and run radionet's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program is built from source into .bench_build/ with every Go
cache, temporary and configuration directory kept there too, so a run
reads and writes only inside the checkout. The program's exit code is
passed through; a failed build exits non-zero without a result line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="-mod=readonly", GOWORK="off", CGO_ENABLED="0")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Write the build's files out now, so the kernel's writeback does not
    # compete with the measured run for the CPUs.
    os.sync()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
