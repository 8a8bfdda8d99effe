#!/usr/bin/env python3
"""Trial-level benchmark of the coded multiparty execution.

Builds perfbench/perfbench.exe with dune, then runs each workload in its
own process.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload; the last stdout line is the JSON result
  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
      every workload in turn, one process each, then a table
  python3 perfbench/run.py --smoke
      every workload at tiny sizes, traced and untraced; checks that each
      metric BENCHMARK.json names prints with its unit, that the traced
      run dropped no events and that the live engine matched the serial
      one; exits 1 otherwise

See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
TMP = os.path.join(ROOT, ".perfbench-tmp")
WORKLOADS = ["line16-crs-iid", "k5-exch-iid", "grid256-crs-clean", "grid256-live2-clean"]
# Workloads that run the same trial keys and must compute the same thing.
SAME_TRIALS = [("grid256-crs-clean", "grid256-live2-clean")]
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # The harness pins its own GC parameters; worker domains would still
    # read OCAMLRUNPARAM at start, so it must not leak in.
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    # Keep the build's files inside the checkout: no shared dune cache,
    # and the compiler's temporary files in a local directory.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = TMP
    return env


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, path)):
            die(f"{path} not found under {ROOT}: run from a full source checkout")
    os.makedirs(TMP, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "perfbench/perfbench.exe"],
        cwd=ROOT, env=child_env(), stdout=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def git_commit():
    """The checked-out commit, read from .git inside the checkout only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def command(workload, seed, seconds, trace, smoke=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", git_commit()]
    return cmd + (["--smoke"] if smoke else [])


def run_captured(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (stdout lines, parsed result or None)."""
    p = subprocess.run(command(workload, seed, seconds, trace, smoke), cwd=ROOT,
                       env=child_env(), stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return lines, result


def info(lines, key):
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "info" and parts[1] == key:
            return parts[2]
    return None


def run_all(args):
    ok = True
    digests = {}
    print(f"{'workload':22} {'metric':40} {'value':>16}  unit")
    for w in WORKLOADS:
        lines, result = run_captured(w, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{w:22} run failed")
            ok = False
            continue
        digests[w] = info(lines, "digest")
        for name, m in result["metrics"].items():
            print(f"{w:22} {name:40} {m['value']:16.6g}  {m['unit']}")
        print(f"{w:22} {'attempted / failed':40} {result['attempted']:>10} / {result['failed']}"
              f"  correct={result['correct']}")
        ok = ok and result["correct"]
    for a, b in SAME_TRIALS:
        if a in digests and b in digests and digests[a] != digests[b]:
            print(f"{a} and {b} computed different outputs on the same trials")
            ok = False
    return 0 if ok else 1


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    digests = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_captured(w, 1, 0.2, trace, smoke=True)
            where = f"{w} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = result["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got:
                    problems.append(f"{where}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} in {got[m['name']]['unit']}, "
                                    f"not {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            if trace == 1 and info(lines, "trace.dropped_events") != "0":
                problems.append(f"{where}: traced run dropped events")
            if trace == 0:
                digests[w] = info(lines, "digest")
    for a, b in SAME_TRIALS:
        if digests.get(a) is None or digests.get(a) != digests.get(b):
            problems.append(f"{a} and {b} disagree on the same trials")
    for p in problems:
        print("smoke: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    if args.smoke:
        return smoke()
    if args.workload is None:
        return run_all(args)
    r = subprocess.run(command(args.workload, args.seed, args.seconds, args.trace),
                       cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
