#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the repository root. The OCaml benchmark in perfbench/ocaml is
built against a copy of lib/ in a private dune workspace under
.bench_build/, so the repository's own dune build never sees it. The
benchmark's stdout is passed through; its last line is one JSON object.
With --trace 1 the recorded spans are written to
.bench_build/spans-<workload>-<seed>.tsv.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKSPACE = os.path.join(BUILD, "perfbench-ws")
SOURCES = os.path.join(ROOT, "perfbench", "ocaml")
EXE = os.path.join(WORKSPACE, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sync_workspace():
    """Lay out the workspace: the benchmark's dune-project at its root,
    lib/ copied beside the benchmark's own sources."""
    if not os.path.isfile(os.path.join(ROOT, "lib", "core", "dune")):
        fail("no lib/ next to perfbench/: run from a full checkout of the repository")
    os.makedirs(WORKSPACE, exist_ok=True)
    for sub in ("lib", "perfbench"):
        shutil.rmtree(os.path.join(WORKSPACE, sub), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), os.path.join(WORKSPACE, "lib"))
    shutil.copytree(SOURCES, os.path.join(WORKSPACE, "perfbench"))
    shutil.move(os.path.join(WORKSPACE, "perfbench", "dune-project"),
                os.path.join(WORKSPACE, "dune-project"))


def build():
    sync_workspace()
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./perfbench/perfbench.exe"],
            cwd=WORKSPACE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed")


def main(argv):
    build()
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        names = {k: v for k, v in zip(args, args[1:]) if k in ("--workload", "--seed")}
        spans = "spans-%s-%s.tsv" % (names.get("--workload", "x"), names.get("--seed", "x"))
        args += ["--spans", os.path.join(BUILD, spans)]
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
