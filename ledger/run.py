#!/usr/bin/env python3
"""Builds the layer-ledger benchmark from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 ledger/run.py --workload compile|run|native|farm \
        --seed N --seconds S --trace 0|1

The build lands in $CARGO_TARGET_DIR (default `.bench_build`) under the
checkout; build logs go to stderr so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the
smltc sources are not next to the benchmark or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ledger")


def build():
    """Configures (once) and builds the `ledger` binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("ledger: no smltc sources next to the benchmark\n")
        return None
    bdir = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "ledger", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("ledger: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(bdir, "ledger")


def main(argv):
    exe = build()
    if exe is None:
        return 2
    out_dir = os.path.join(os.path.dirname(build_dir()), "ledger-out")
    # cc keeps its temporary files under TMPDIR; keep them in the checkout.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    sys.stdout.flush()
    return subprocess.run([exe, "--out-dir", out_dir] + argv,
                          cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
