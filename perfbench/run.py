#!/usr/bin/env python3
"""Build and run the softft benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune under the perfbench profile (only it
and the libraries it links), then runs it with the given arguments plus
the code revision for provenance.  The benchmark's last line of standard
output is its JSON result; its exit code is passed through.  A failed
build exits non-zero without printing a result.  Everything it writes
stays inside the checkout, under .perfbench/ (the build in
.perfbench/_build/).
"""

import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"
OUT = ".perfbench"
BUILD = os.path.join(OUT, "_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")


def revision():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def main():
    env = dict(os.environ)
    # Keep dune's build cache and the runtime-events ring inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    os.makedirs(OUT, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench",
         "--build-dir", os.path.abspath(BUILD), "--display", "quiet", TARGET],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:] + ["--commit", revision()],
                         env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
