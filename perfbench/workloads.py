"""The benchmark's workloads: their inputs, one operation each, and its checks.

Every workload is closed-loop with one client: the runner starts the next
operation when the previous one returns.  ``op`` takes a tracer; with
tracing off it is a NullTracer and the calls go straight through.  The
package is imported from the checkout's ``src`` by run.py before this
module is loaded.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import probe
import spec
from spans import ATTRS, END, NAME, START

from geodex import (
    Digraph,
    SearchParams,
    automorphism_orbits,
    canonical_form,
    catalog_a,
    catalog_b,
    classify_pair,
    common_out_pairs,
    read_digraph,
    run_task,
    search,
    search_cayley_a4,
    split_tasks,
    triangle_census,
    verify,
    write_digraph,
)
from geodex.cayley import a4_elements, cayley_digraph

CLI_TIMEOUT_S = 150


class Checks:
    """Output checks counted against attempts.

    A moved deterministic count (nodes, split size, leaves, checkpoint
    slices and bytes) is recorded as a count change, not a failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.count_changes: dict[str, tuple] = {}

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    def count(self, label: str, got, pinned) -> None:
        if got != pinned:
            self.count_changes[label] = (got, pinned)


def _params(case: spec.Case) -> SearchParams:
    return SearchParams(d=case.d, k=case.k, epsilon=case.epsilon, diregular=case.diregular)


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _check_search(checks: Checks, case: spec.Case, forms: list[bytes], nodes: int,
                  complete: bool, counters: dict) -> None:
    checks.check(f"{case.name}: complete", complete)
    checks.check(f"{case.name}: {len(forms)} classes, pinned {case.classes}",
                 len(forms) == case.classes)
    checks.check(f"{case.name}: canonical forms sha256", _sha256(sorted(forms)) == case.forms_sha256)
    checks.count(f"{case.name}.nodes", nodes, case.nodes)
    counters[f"{case.name}.nodes"] = nodes
    counters[f"{case.name}.classes"] = len(forms)


def drive_search(case: spec.Case, checks: Checks, tracer, counters: dict) -> None:
    """search() by hand, serially: split_tasks, then run_task on each task.

    Leaf emission is timed by wrapping the verify and canonical_form names
    the engine module calls; the originals are restored afterwards.
    """
    engine = importlib.import_module("geodex.search")
    saved = engine.verify, engine.canonical_form
    engine.verify = tracer.wrap("core.verify", saved[0])
    engine.canonical_form = tracer.wrap("canon.canonical_form", saved[1])
    first = len(tracer.spans)
    params = _params(case)
    try:
        with tracer.span("search", case=case.name) as attrs:
            with tracer.span("search.split") as split:
                tasks, stats = split_tasks(params)
                split["nodes"], split["tasks"] = stats["nodes"], len(tasks)
            merged = dict(stats["results"])
            nodes, stopped = stats["nodes"], stats["stopped"]
            for task in tasks:
                with tracer.span("search.task") as task_attrs:
                    results, task_nodes, task_stopped = run_task(params, task)
                    task_attrs["nodes"] = task_nodes
                nodes += task_nodes
                stopped = stopped or task_stopped
                for data, g in results.items():
                    merged.setdefault(data, g)
            attrs["classes"] = len(merged)
    finally:
        engine.verify, engine.canonical_form = saved
    leaves = sum(1 for s in tracer.spans[first:] if s[NAME] == "canon.canonical_form")
    _check_search(checks, case, list(merged), nodes, not stopped, counters)
    for label, got, pinned in (("split_nodes", stats["nodes"], case.split_nodes),
                               ("split_tasks", len(tasks), case.split_tasks),
                               ("leaves", leaves, case.leaves)):
        checks.count(f"{case.name}.{label}", got, pinned)
        counters[f"{case.name}.{label}"] = got


class Workload:
    """One workload; its inputs are made in __init__, which set-up times."""

    def op(self, checks: Checks, tracer) -> dict:
        """One closed-loop operation; returns its deterministic counters."""
        raise NotImplementedError

    def extras(self, checks: Checks, tracer) -> None:
        """Measurements made once per traced operation, outside its timing."""

    def child_samples(self) -> list[float]:
        """Probe samples taken in child processes since the last call.

        Empty when the operation runs in this process, whose own probe
        then samples it.
        """
        return []

    def close(self) -> None:
        """Remove whatever __init__ created."""


class SearchWorkload(Workload):
    """Library search() on pinned cases; traced, the same searches via drive_search."""

    def __init__(self, name: str, seed: int, root: Path) -> None:
        self.cases = [spec.CASES[c] for c in spec.SEARCH_WORKLOADS[name]]
        self.params = [_params(c) for c in self.cases]

    def op(self, checks: Checks, tracer) -> dict:
        counters: dict = {}
        for case, params in zip(self.cases, self.params):
            if tracer.enabled:
                drive_search(case, checks, tracer, counters)
            else:
                out = search(params)
                _check_search(checks, case, [r.form.data for r in out.results],
                              out.nodes_explored, out.complete, counters)
        return counters


def _relabel(g: Digraph, rng: random.Random) -> Digraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    out: list[list[int]] = [[] for _ in range(g.n)]
    for v, targets in enumerate(g.out):
        out[perm[v]] = [perm[w] for w in targets]
    return Digraph(g.n, out)


def read_blocks(path: Path) -> list[Digraph]:
    """Every digraph in a file of concatenated digraph-format blocks."""
    blocks: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("n "):
            blocks.append([])
        if blocks:
            blocks[-1].append(line)
    return [read_digraph("\n".join(b)) for b in blocks]


class CorpusWorkload(Workload):
    """One operation is one pass over a relabelled corpus of 126 digraphs.

    The corpus is the catalog pair, all 66 Cayley digraphs of 2-element
    subsets of A4 and the 58 (2,2,+4) classes.  Passes cycle through
    CORPORA relabelled copies drawn from the seed, so a run samples several
    labellings of the digraphs whose canonical form is expensive.
    """

    CORPORA = 4

    def __init__(self, name: str, seed: int, root: Path) -> None:
        base = [("catalog", catalog_a().digraph, SearchParams(2, 2, 2, True)),
                ("catalog", catalog_b().digraph, SearchParams(2, 2, 2, True))]
        base += [("cayley", cayley_digraph(pair), SearchParams(2, 2, 5, True))
                 for pair in combinations(a4_elements(), 2)]
        base += [("class", g, SearchParams(2, 2, 4, True))
                 for g in read_blocks(root / "perfbench" / "fixtures" / "d2k2e4_classes.dg")]
        rng = random.Random(seed)
        self.corpora = [[(kind, _relabel(g, rng), p) for kind, g, p in base]
                        for _ in range(self.CORPORA)]
        self.passes = 0

    def op(self, checks: Checks, tracer) -> dict:
        corpus = self.corpora[self.passes % self.CORPORA]
        self.passes += 1
        call = tracer.call
        forms: list[bytes] = []
        rows = []
        roundtrip = True
        witness_outs: set[bytes] = set()
        witness_orbits = []
        for kind, g, params in corpus:
            h = call("catalog.read", read_digraph, call("catalog.write", write_digraph, g))
            roundtrip = roundtrip and h == g
            ok = call("core.verify", verify, h, params).ok
            forms.append(call("canon.corpus", canonical_form, h).data)
            if not ok and kind == "cayley":
                rows.append((kind, ok))
                continue
            orbits = call("canon.orbits", automorphism_orbits, h)
            census = call("lemmas.census", triangle_census, h)
            pairs = call("lemmas.census", common_out_pairs, h, 1)
            bad = None
            if kind == "catalog":
                bad = sum(call("lemmas.census", classify_pair, h, p.u, p.v, 2).bad for p in pairs)
            sizes = sorted(orbits.orbit_id.count(i) for i in range(orbits.orbit_count))
            rows.append((kind, ok, sizes, len(census.triangles), sorted(census.per_vertex),
                         len(pairs), bad))
            if kind == "cayley":
                witness_outs.add(forms[-1])
                witness_orbits.append(orbits.orbit_count)
        witnesses = call("cayley.scan", search_cayley_a4, 2, 5)

        checks.check("corpus: write_digraph/read_digraph round trip", roundtrip)
        checks.check("corpus: canonical forms sha256", _sha256(forms) == spec.CORPUS_FORMS_SHA256)
        checks.check("catalog A canonical hex", forms[0].hex() == spec.CATALOG_A_HEX)
        checks.check("corpus: verdicts, orbits and censuses sha256",
                     _sha256(repr(r).encode() for r in rows) == spec.CORPUS_CENSUS_SHA256)
        checks.check("corpus: catalog and classes pass verify",
                     all(r[1] for r, (kind, _, _) in zip(rows, corpus) if kind != "cayley"))
        checks.check(f"corpus: {len(witness_orbits)} Cayley digraphs pass verify, "
                     f"pinned {spec.CAYLEY_WITNESSES}", len(witness_orbits) == spec.CAYLEY_WITNESSES)
        checks.check("corpus: each Cayley witness has one orbit", all(c == 1 for c in witness_orbits))
        checks.check("catalog bad pairs A=3 B=0", (rows[0][-1], rows[1][-1]) == spec.CATALOG_BAD_PAIRS)
        checks.check("search_cayley_a4(2,5) finds the witnesses verify passes",
                     {canonical_form(w.digraph).data for w in witnesses} == witness_outs
                     and len(witnesses) == spec.CAYLEY_WITNESSES)
        return {"corpus.digraphs": len(corpus), "corpus.verified": sum(1 for r in rows if r[1]),
                "cayley.witnesses": len(witnesses)}


_SUMMARY = re.compile(r"^results=(\d+) nodes=(\d+) complete=(true|false)$")


class CliWorkload(Workload):
    """`python -m geodex search` in subprocesses, as users run it."""

    NONEXIST = ["search", "--d", "3", "--k", "2", "--excess", "1", "--diregular", "--jobs", "2"]
    OUT_REGULAR = ["search", "--d", "2", "--k", "2", "--excess", "3", "--jobs", "2"]
    SLICED = ["search", "--d", "2", "--k", "3", "--excess", "2", "--diregular", "--long-run"]

    def __init__(self, name: str, seed: int, root: Path, probing: bool) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.checkpoint = self.workdir / "k3.json"
        self.probe_dir = None
        self.samples: list[float] = []
        if probing:
            self.probe_dir = self.workdir / "probe"
            self.probe_dir.mkdir()

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run the CLI to completion; on timeout kill its whole process group.

        With probing on it runs under probed_cli.py, and the samples of the
        CLI and its workers are kept for child_samples.
        """
        command = [sys.executable, "-m", "geodex", *argv]
        if self.probe_dir is not None:
            command = [sys.executable, str(self.root / "perfbench" / "probed_cli.py"),
                       str(self.probe_dir), *argv]
        proc = subprocess.Popen(command, cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, ""
        finally:
            if self.probe_dir is not None:
                self.samples += probe.collect(self.probe_dir)
        return proc.returncode, out

    def child_samples(self) -> list[float]:
        taken, self.samples = self.samples, []
        return taken

    def _search(self, checks: Checks, label: str, argv: list[str], results: int,
                tracer, span: str = "cli.search") -> tuple[int, bool, str]:
        with tracer.span(span, command=label) as attrs:
            code, out = self.cli(argv)
        lines = out.splitlines()
        m = _SUMMARY.match(lines[-1]) if lines else None
        if not checks.check(f"{label}: summary line", m is not None):
            return -1, False, out
        complete = m.group(3) == "true"
        checks.check(f"{label}: exit {code} matches complete={m.group(3)}",
                     code == (0 if complete else 1))
        checks.check(f"{label}: results={m.group(1)}, pinned {results}", int(m.group(1)) == results)
        attrs["nodes"] = int(m.group(2))
        return int(m.group(2)), complete, out

    def op(self, checks: Checks, tracer) -> dict:
        counters: dict = {}
        for label, argv, case in (("d3k2e1 --jobs 2", self.NONEXIST, spec.CASES["d3k2e1"]),
                                  ("d2k2e3-out --jobs 2", self.OUT_REGULAR, spec.CASES["d2k2e3-out"])):
            nodes, complete, out = self._search(checks, label, argv, case.classes, tracer)
            checks.check(f"{label}: complete", complete)
            checks.count(f"cli {label} nodes", nodes, case.nodes)
            counters[f"cli.{case.name}.nodes"] = nodes
        blocks = out[: out.rfind("results=")]
        checks.check("d2k2e3-out --jobs 2: printed digraphs sha256",
                     _sha256([blocks.encode()]) == spec.CLI_OUT_REGULAR_SHA256)

        self.checkpoint.unlink(missing_ok=True)
        argv = self.SLICED + ["--budget", str(spec.CLI_SLICE_BUDGET), "--checkpoint", str(self.checkpoint)]
        slices: list[int] = []
        complete = False
        while not complete and len(slices) < spec.CLI_MAX_SLICES:
            nodes, complete, _ = self._search(checks, "d2k3e2 slice", argv, 0, tracer, "cli.slice")
            slices.append(nodes)
        checks.check("d2k3e2 slices: complete", complete)
        size = self.checkpoint.stat().st_size if self.checkpoint.exists() else 0
        self.checkpoint.unlink(missing_ok=True)
        checks.count("cli d2k3e2 slice nodes", tuple(slices), spec.CLI_SLICE_NODES)
        checks.count("cli checkpoint bytes", size, spec.CLI_CHECKPOINT_BYTES)
        counters["cli.checkpoint.slices"] = len(slices)
        counters["cli.checkpoint.slice_nodes"] = slices
        counters["cli.checkpoint.bytes"] = size
        return counters

    def extras(self, checks: Checks, tracer) -> None:
        """CLI start-up, one unsliced run and library pool speed-up (traced runs only)."""
        for _ in range(3):
            with tracer.span("cli.startup"):
                code, out = self.cli(["moore", "2", "2"])
            checks.check("geodex moore 2 2 prints 7", code == 0 and out.strip() == "7")
        _, complete, _ = self._search(checks, "d2k3e2 unsliced", self.SLICED, 0, tracer,
                                          "cli.unsliced")
        checks.check("d2k3e2 unsliced: complete", complete)
        case = spec.CASES["d3k2e1"]
        with tracer.span("pool.jobs1"):
            drive_search(case, checks, tracer, {})
        with tracer.span("pool.jobs2"):
            out = search(_params(case), jobs=2)
        _check_search(checks, case, [r.form.data for r in out.results], out.nodes_explored,
                      out.complete, {})

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: Path, probing: bool):
    """The workload's inputs; probing runs its child processes under the probe."""
    if name in spec.SEARCH_WORKLOADS:
        return SearchWorkload(name, seed, root)
    if name == "verify_corpus":
        return CorpusWorkload(name, seed, root)
    return CliWorkload(name, seed, root, probing)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, 0 < q <= 1; 0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(round(q * len(values), 9)) - 1]


def layer_metrics(tracer, run_id: str) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced operation."""
    by: dict[str, list] = defaultdict(list)
    for s in tracer.of_run(run_id):
        by[s[NAME]].append(s)
    selfs = tracer.self_times(run_id)

    def durations(name):
        return [s[END] - s[START] for s in by[name]]

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key, 0) for s in by[name])

    m = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    task_s = durations("search.task")
    task_nodes = [s[ATTRS]["nodes"] for s in by["search.task"]]
    leaves = len(by["canon.canonical_form"])
    classes = attr_sum("search", "classes")
    m["search.split.s"] = sum(durations("search.split"))
    m["search.split.nodes"] = attr_sum("search.split", "nodes")
    m["search.split.tasks"] = attr_sum("search.split", "tasks")
    m["search.tasks.self_s"] = selfs.get("search.task", 0.0)
    m["search.nodes"] = m["search.split.nodes"] + sum(task_nodes)
    if m["search.tasks.self_s"]:
        m["search.nodes_per_s"] = sum(task_nodes) / m["search.tasks.self_s"]
    m["search.task.s_p50"] = quantile(task_s, 0.5)
    m["search.task.s_max"] = max(task_s, default=0.0)
    if sum(task_nodes):
        m["search.task.nodes_max_share"] = max(task_nodes) / sum(task_nodes)
    m["search.leaves"] = leaves
    m["search.classes"] = classes
    if leaves:
        m["search.unique_ratio"] = classes / leaves
    canon_s = durations("canon.canonical_form")
    m["canon.calls"] = len(canon_s)
    m["canon.s"] = sum(canon_s)
    m["canon.s_p50"] = quantile(canon_s, 0.5)
    m["canon.s_p99"] = quantile(canon_s, 0.99)
    m["canon.corpus.s"] = sum(durations("canon.corpus"))
    m["canon.orbits.s"] = sum(durations("canon.orbits"))
    m["core.verify.calls"] = len(by["core.verify"])
    m["core.verify.s"] = sum(durations("core.verify"))
    m["lemmas.census.s"] = sum(durations("lemmas.census"))
    m["catalog.read.s"] = sum(durations("catalog.read"))
    m["cayley.scan.s"] = sum(durations("cayley.scan"))
    jobs1, jobs2 = sum(durations("pool.jobs1")), sum(durations("pool.jobs2"))
    if jobs1 and jobs2:
        m["pool.speedup"] = jobs1 / jobs2
        m["pool.efficiency"] = m["pool.speedup"] / 2
    m["cli.startup_s"] = quantile(durations("cli.startup"), 0.5)
    m["cli.checkpoint.slices"] = attr_sum("op", "cli.checkpoint.slices")
    m["cli.checkpoint.bytes"] = attr_sum("op", "cli.checkpoint.bytes")
    if by["cli.unsliced"]:
        m["cli.slice_overhead_s"] = sum(durations("cli.slice")) - sum(durations("cli.unsliced"))
    return m

