"""Before/after benchmark of two git revisions in alternating pairs.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 15 --out BENCH_N.json

Each run extracts its revision afresh with ``git archive`` into a new
temporary directory and runs ``perfbench/run.py --trace 0`` there with
PYTHONDONTWRITEBYTECODE=1, so no run reuses another's bytecode or
output.  Pair i uses seed i and runs the parent first when i is odd and
the change first when it is even; within a pair the workloads are
interleaved, each one's two runs back to back.  The output holds, per
workload and end-to-end metric of BENCHMARK.json (plus the unscaled
wall time), every run, the medians and quartiles of each side, the
number of pairs in which the change was better and a verdict (see
_verdict); per workload, each run's deterministic counters (run.py's ``counters`` line), whether the
two sides' counters agreed in every pair and the keys that differed;
then a summary of the runs' checks, and the host: its CPUs and the
ones the runs could use.  The exit status is 1 when a run was
incorrect or had a failed operation; counters that differ do not change
it, since a pruning change moves node counts on purpose.  An --out path
that cannot be written, or a --workloads name that BENCHMARK.json does
not list, exits 2 before any run.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNSCALED = "wall_s"  # the unscaled median wall time, read from run.py's text line


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def _host() -> dict:
    """The host the runs share: its CPUs, those this process may run on,
    which is what search() sizes its pool by, the machine and Python."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cores": os.cpu_count(), "usable_cpus": usable, "machine": platform.machine(),
            "python": platform.python_version()}


def _run(rev: str, workload: str, seed: int,
         seconds: float) -> tuple[dict, bool, int, list[str], dict | None]:
    """One run of perfbench/run.py on a fresh extraction of rev.

    Returns the run's metrics, whether it was correct, its failed
    operations, its count-change lines and its counters, None when it
    printed none.  A run that exits without a result counts as incorrect.
    """
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", work], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"error: git archive {rev} failed")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=work, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        return {}, False, 0, [], None
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    counters = None
    for line in lines:
        if line.startswith("wall_s (unscaled) median "):
            metrics[UNSCALED] = float(line.split()[3])
        elif line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    correct = done.returncode == 0 and result["correct"] is True
    return (metrics, correct, result["failed"],
            [l for l in lines if l.startswith("count-change")], counters)


def _summary(runs: list[float]) -> dict:
    if len(runs) == 1:
        return dict.fromkeys(("median", "q1", "q3"), runs[0])
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(entry: dict, better: str, bound: float | None) -> str:
    """"gain", "worse" or "held" for one workload's pairs of one metric.

    "gain" when the change won at least 9 in 10 of the pairs and its
    median beats the parent's by more than the parent's interquartile
    range; "worse" when its median is worse than the parent's by more than
    the metric's bound, a fraction of the parent's median (none for the
    unscaled wall time, which BENCHMARK.json does not bound); else "held".
    """
    sign = 1 if better == "lower" else -1
    parent, change = entry["parent"], entry["change"]
    ahead = sign * (parent["median"] - change["median"])
    if 10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and ahead > parent["q3"] - parent["q1"]:
        return "gain"
    if bound is not None and -ahead > bound * parent["median"]:
        return "worse"
    return "held"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py", description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision measured as the parent")
    p.add_argument("change", help="git revision measured as the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--workloads", help="comma-separated; default: every workload of BENCHMARK.json")
    p.add_argument("--about", default="", help="text for the output's about field")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    # a path that cannot be written fails now, not after every run is done
    out_path = Path(args.out).resolve()
    existed = out_path.exists()
    try:
        with open(out_path, "a"):
            pass
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    if not existed:
        out_path.unlink()
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"error: unknown --workloads {','.join(unknown)}; BENCHMARK.json lists "
              f"{','.join(known)}", file=sys.stderr)
        return 2
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better[UNSCALED] = "lower"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": _git("rev-parse", "--short", args.parent),
             "change": _git("rev-parse", "--short", args.change)}

    runs = {w: {side: [] for side in sides} for w in workloads}
    counted = {w: {side: [] for side in sides} for w in workloads}
    checks = {side: {"runs": 0, "all_correct": True, "failed_ops": 0, "count_change_lines": []}
              for side in sides}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for w in workloads:
            for side in order:
                metrics, correct, failed, changes, counters = _run(sides[side], w, i, args.seconds)
                check = checks[side]
                check["runs"] += 1
                check["all_correct"] &= correct
                check["failed_ops"] += failed
                check["count_change_lines"] = sorted(set(check["count_change_lines"]) | set(changes))
                runs[w][side].append(metrics)
                counted[w][side].append(counters)
                print(f"pair {i} {w} {side} " + json.dumps(metrics), file=sys.stderr, flush=True)

    pairs = {}
    for w in workloads:
        pairs[w] = {}
        for name in better:
            parent = [m.get(name) for m in runs[w]["parent"]]
            change = [m.get(name) for m in runs[w]["change"]]
            if None in parent or None in change:
                continue
            wins = sum((c < q) if better[name] == "lower" else (c > q)
                       for q, c in zip(parent, change))
            entry = {"parent": _summary(parent), "change": _summary(change),
                     "change_better_pairs": wins, "pairs": args.pairs,
                     "parent_runs": parent, "change_runs": change}
            entry["verdict"] = _verdict(entry, better[name], bounds.get(name))
            pairs[w][name] = entry
    counters = {}
    for w in workloads:
        parent, change = counted[w]["parent"], counted[w]["change"]
        differ = sorted({key for p, c in zip(parent, change) if p is not None and c is not None
                         for key in p.keys() | c.keys() if p.get(key) != c.get(key)})
        counters[w] = {"agree": None not in parent + change and not differ,
                       "differing_keys": differ, "parent_runs": parent, "change_runs": change}
    about = (f"{args.about} 'pairs' holds {args.pairs} alternating parent/change runs of "
             f"perfbench/run.py --seconds {args.seconds:g} --trace 0 per workload (seed i for "
             "pair i, parent first in odd pairs), each side extracted fresh with git archive "
             "for every run and run with PYTHONDONTWRITEBYTECODE=1; the workloads were "
             f"interleaved within each pair. {UNSCALED} is the unscaled median wall time. "
             "'counters' holds each run's deterministic counters and whether the two "
             "sides' agreed in every pair.").strip()
    out = {"about": about, "parent_commit": sides["parent"], "change_commit": sides["change"],
           "host": _host(),
           "pairs": pairs, "counters": counters, "checks": checks}
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(c["all_correct"] and not c["failed_ops"] for c in checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
