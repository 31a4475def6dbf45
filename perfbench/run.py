#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first run configures and builds
perfbench/ together with the libraries under src/ into .bench_build/;
later runs rebuild only what changed. Build output goes to standard error,
so standard output carries only the benchmark's figures and ends in one JSON
result line.
Files the workloads save and reopen live in .bench_build/work/.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no bellwether sources under %s\n"
                         % os.path.join(root, "src"))
        return 2
    build = os.path.join(root, ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return 2
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Replace this process, so the caller sees the benchmark's own exit code
    # and signals and nothing is left running.
    os.execv(binary, [binary] + sys.argv[1:] + ["--work-dir", work])


if __name__ == "__main__":
    sys.exit(main())
