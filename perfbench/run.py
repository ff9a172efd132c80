#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a qvisor checkout:

    python3 perfbench/run.py --workload fig4-paper-bare --seed 1 \\
        --seconds 15 --trace 0

The build (dune, this checkout's sources) goes to _build/ and its output
to standard error; temporary files (the daemon's control socket and
runtime-events rings) go to .perfbench/ in the checkout and are removed
afterwards.  The last line of standard output is the result object that
perfbench/bench.ml prints.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("fig4-paper-bare", "fig4-quick-observed", "serve-churn")

# A run measures for --seconds and then finishes its last repetition or
# window; well within this limit unless something hangs.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Turn SIGTERM into an exit, so the child is killed and the temporary
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("perfbench: run this from the root of a qvisor checkout")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        sys.exit("perfbench: neither dune nor opam is on PATH")

    tmp = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the build and the run write inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(tmp)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(tmp)
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet",
                    "@install", "perfbench/bench.exe"],
            stdout=sys.stderr, env=env)
        if build.returncode != 0:
            sys.exit("perfbench: build failed")
        cmd = [
            os.path.join("_build", "default", "perfbench", "bench.exe"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--daemon", os.path.join("_build", "install", "default", "bin",
                                     "qvisor-cli"),
            "--tmp", tmp,
        ]
        if args.workload == "serve-churn":
            # The client and the daemon share one core, so the host-speed
            # samples the client takes are of the core the daemon runs on.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # A session of its own, so that the benchmark's children (the
        # daemon, the points' processes) go with it whatever happens.
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run timed out")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass


if __name__ == "__main__":
    main()
