"""geodex benchmark: runs one workload, checks its outputs and prints metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload leaf_rich --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Workloads are listed in spec.py; ``smoke`` is a one-second self-test on
(2,2,+2) that is not part of BENCHMARK.json.  With ``--trace 0`` the run
repeats the workload's operation for ``--seconds`` (at least spec.MIN_OPS
times) with the host-speed probe on (probe.py) and reports the end-to-end
metrics, their times scaled to the probe's reference speed.  With
``--trace 1`` it alternates an untraced and a traced operation, reports
the per-layer metrics from the traced ones, and writes the spans to
perfbench/out/.

Human-readable lines come first: a stamp, the deterministic counters,
count changes and failed checks, then each metric.  The last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
package is imported from the checkout's src/; without it the run exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*spec.WORKLOADS, spec.SMOKE])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    return p


def _import_package():
    """Import geodex from the checkout's src/, never from anywhere else."""
    if not (SRC / "geodex" / "__init__.py").is_file():
        raise SystemExit(f"error: no geodex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import geodex
    if Path(geodex.__file__).resolve().parent != (SRC / "geodex").resolve():
        raise SystemExit(f"error: imported geodex from {geodex.__file__}, not from {SRC}")


def _setup_once(workload: str, seed: int, probing: bool):
    """One set-up: import the package afresh, then make the workload's inputs.

    The fresh import re-runs every module body from the cached bytecode, so
    work moved to import time shows; the modules the run uses are put back
    afterwards.  It is timed in-process because the time to start a new
    interpreter swings with the host far more than Python work does.
    """
    def ours():
        return [m for m in sys.modules if m == "geodex" or m.startswith("geodex.")]

    saved = {m: sys.modules.pop(m) for m in ours()}
    try:
        importlib.import_module("geodex")
    finally:
        for m in ours():
            del sys.modules[m]
        sys.modules.update(saved)
    import workloads
    return workloads.make(workload, seed, ROOT, probing)


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    from workloads import quantile
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p} {quantile(samples, p / 100):.6f} s"
    return "no percentile has 10 samples beyond it"


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children covers the largest waited-for descendant
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        _parser().error("--workload is required")
    _import_package()
    import probe
    import workloads
    from spans import NullTracer, Tracer

    load_start = os.getloadavg()
    host = probe.Probe()
    if not args.trace:
        host.start()

    def speed(window: list[float]) -> float:
        # a window too short for a sample takes the run's speed so far
        return probe.speed(window or host.samples)

    setups: list[float] = []
    setup_samples: list[float] = []

    def set_up():
        first = len(host.samples)
        t = time.perf_counter()
        made = _setup_once(args.workload, args.seed, probing=not args.trace)
        setups.append(time.perf_counter() - t)
        setup_samples.extend(host.samples[first:])
        return made

    wl = set_up()
    for _ in range(0 if args.trace else spec.SETUP_REPS - 1):
        set_up().close()

    checks = workloads.Checks()
    reference: dict = {}
    speeds: list[float] = []

    def timed(tracer) -> tuple[float, dict]:
        first = len(host.samples)
        t = time.perf_counter()
        counters = wl.op(checks, tracer)
        elapsed = time.perf_counter() - t
        if not args.trace:
            speeds.append(speed(wl.child_samples() or host.samples[first:]))
        shared = sorted(set(counters) & set(reference))
        checks.check("deterministic counters equal across operations",
                     [counters[k] for k in shared] == [reference[k] for k in shared])
        for key, value in counters.items():
            reference.setdefault(key, value)
        return elapsed, counters

    plain: list[float] = []
    traced: list[float] = []
    run_ids: list[str] = []
    tracer = Tracer()
    start = time.perf_counter()
    try:
        if not args.trace:
            while len(plain) < spec.MIN_OPS or time.perf_counter() - start < args.seconds:
                plain.append(timed(NullTracer())[0])
                set_up().close()
        else:
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(timed(NullTracer())[0])
                tracer.run_id = f"{args.workload}:{args.seed}:{len(traced)}"
                run_ids.append(tracer.run_id)
                with tracer.span("op") as attrs:
                    elapsed, counters = timed(tracer)
                    attrs.update(counters)
                traced.append(elapsed)
                with tracer.span("extras"):
                    wl.extras(checks, tracer)
    finally:
        host.stop()
        wl.close()

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "load_start": list(load_start),
        "load_end": list(os.getloadavg()),
    }
    print("stamp " + json.dumps(stamp))
    print("counters " + json.dumps(reference, sort_keys=True))
    for label, (got, pinned) in sorted(checks.count_changes.items()):
        print(f"count-change {label}: {got} (pinned {pinned})")
    for label in checks.failures:
        print(f"failed-check {label}")
    print(f"fail_ratio {len(checks.failures)}/{checks.attempted}")

    if args.trace:
        per_op = [workloads.layer_metrics(tracer, run_id) for run_id in run_ids]
        metrics = {name: statistics.median(m[name] for m in per_op) for name, _, _ in spec.PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, stamp)
        selfs: dict[str, list[float]] = {}
        for run_id in run_ids:
            for name, value in tracer.self_times(run_id).items():
                selfs.setdefault(name, []).append(value)
        for name, values in sorted(selfs.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"self_s {name} {statistics.median(values):.6f} s")
        print(f"spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        scaled = [t * s for t, s in zip(plain, speeds)]
        wall = statistics.median(scaled)
        metrics = {
            "scaled_wall_s": wall,
            "setup_s": statistics.median(setups) * speed(setup_samples),
            "peak_rss_mb": _peak_rss_mib(),
        }
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        print(f"scaled_wall_s samples n={len(scaled)} median {wall:.6f} s, {_tail(scaled)}; "
              + " ".join(f"{x:.4f}" for x in scaled))
        print(f"wall_s (unscaled) median {statistics.median(plain):.6f} s; "
              + " ".join(f"{x:.4f}" for x in plain))
        print("host speed per operation " + " ".join(f"{x:.3f}" for x in speeds)
              + f"; set-up {speed(setup_samples):.3f} over {len(setup_samples)} samples")
        if args.workload == "verify_corpus":
            print(f"digraphs_per_s {spec.CORPUS_SIZE / wall:.3f} 1/s")
    for name, value in metrics.items():
        print(f"{name} {value:.6f} {units[name]}")

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
