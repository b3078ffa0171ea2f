"""Run one workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workload nonexist --seeds 1-10
    python3 perfbench/sweep.py --workload leaf_rich --seeds 1-10 --trace 1 --json perfbench/baseline.json

For every metric it prints the median of the per-run values, the first
and third quartiles (statistics.quantiles, n=4) and the spread, their
distance as a share of the median, next to the metric's bound.  It also
checks that every run was correct and printed the same deterministic
counters.  With --json the summary is merged into that file under the
workload's name and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    counters = next((ln[len("counters "):] for ln in lines if ln.startswith("counters ")), "")
    return json.loads(lines[-1]), counters


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, spec.SMOKE])
    p.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="merge the summary into this file")
    args = p.parse_args(argv)

    results, counters = [], set()
    for seed in _seeds(args.seeds):
        result, seen = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        counters.add(seen)
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
                          if k in ("scaled_wall_s", "setup_s", "peak_rss_mb", "trace.overhead_s"))
        print(f"seed {seed} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": results[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{verdict}")
    all_correct = all(r["correct"] for r in results)
    same_counters = len(counters) == 1
    print(f"all correct: {all_correct}; counters identical across runs: {same_counters}")

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds, "metrics": summary,
            "counters": json.loads(counters.pop()) if same_counters else None,
        }
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct and same_counters else 1


if __name__ == "__main__":
    sys.exit(main())
