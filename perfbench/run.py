#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mix16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The script builds the Go program in this directory from source, keeping the
build cache, temporary files and outputs under .bench_build/ in the checkout,
then runs one workload per process. The last line of standard output is the
workload's JSON result; with --workload all, a combined JSON object follows
the per-workload output. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["mix16", "stream16-full", "fig3-sampled"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
    })
    env.pop("GOMODCACHE", None)
    for d in ("tmp", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()

    def run(workload):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(build, "perfbench-out"), "--commit", commit]
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        return proc.returncode, proc.stdout

    if args.workload != "all":
        code, _ = run(args.workload)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in WORKLOADS:
        code, out = run(w)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if code == 0 and lines else None
        except json.JSONDecodeError:
            res = None
        if res is None:
            print("perfbench: workload %s failed (exit %d)" % (w, code), file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
