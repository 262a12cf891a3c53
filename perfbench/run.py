#!/usr/bin/env python3
"""Build the benchmark binary from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload ft8_dense --seed 2003 --seconds 30 --trace 0

Every argument is passed to the `perfbench` binary (see README.md in this
directory). Cargo's output goes to standard error, so the last line of
standard output is the binary's JSON result. Build products go to
$CARGO_TARGET_DIR, or to `.bench_build` under the current directory when
it is unset. Exits non-zero, without a result line, when the build fails
(for instance when the simulator crates are not beside this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    # A signal death shows as a negative code; report it as a failure.
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
