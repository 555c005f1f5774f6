#!/usr/bin/env python3
"""Builds the diophantus CLI and the perfbench program from source, then runs
one benchmark workload.

Run from the root of a diophantus checkout:

    python3 perfbench/run.py --workload <stream|hard|allprobes|lint|all> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default: .bench_build); traced runs
write their Chrome trace and per-layer summary to .bench_build/perfbench-out.
The last line of stdout is the run's JSON result. `--workload all` runs every
workload in BENCHMARK.json in turn (one JSON line each) and exits non-zero if
any of them does.
"""

import json
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: run from the root of a diophantus checkout "
              "(Cargo.toml and crates/ are missing here)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "diophantus", "--bin", "diophantus"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for args in builds:
        build = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                               stdout=sys.stderr, env=env)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    binary = os.path.join(target, "release", "diophantus")
    out = os.path.join(root, ".bench_build", "perfbench-out")
    command = [bench, "--binary", binary, "--out", out] + sys.argv[1:]
    if "--workload" in command and command[command.index("--workload") + 1:][:1] == ["all"]:
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        at = command.index("--workload") + 1
        codes = [subprocess.run(command[:at] + [name] + command[at + 1:]).returncode
                 for name in names]
        return max(codes)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(bench, command)


if __name__ == "__main__":
    sys.exit(main())
