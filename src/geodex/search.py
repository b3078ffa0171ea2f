"""Isomorph-free exhaustive generation of k-geodetic digraphs of a given order.

The generator grows out-lists in vertex order, lowest open slot first.
Vertex 0's tree is pre-labeled: in a k-geodetic digraph with out-degree
exactly d every vertex sees a full d-ary tree of depth k, so the first
moore_bound(d, k) vertices can be fixed in breadth-first order for free.
Later targets must keep each out-list strictly increasing, and a brand
new vertex may only enter as the smallest unused index.  Every digraph
with out-degree exactly d has a relabeling that the grammar produces, so
nothing is lost; duplicates that survive are removed by canonical form,
and only a leaf of a class new to its task is verified.

Pruning is incremental.  The engine stores every vertex's k-ball.  After
an arc v -> w lands, only sources that reach v within k-1 steps gain
walks, and the new ones all run through the arc: a source t steps from
v gains w's ball of radius k-1-t, which must not meet its stored ball.
So each arc costs one backward scan from v, one scan of w's balls and
one AND per source, and the stored balls grow (and are undone on
backtrack) by exactly those new ends.  A task's start partial enters
the same way, one arc at a time from the empty digraph, so every state
is checked by the same code.  Whenever an out-list fills, full pruning
in diregular mode additionally runs one global cut on the stored balls:
a vertex shut out of more than epsilon finished k-balls.
All cuts are sound: they only fire on partials no valid completion can
extend.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import TextIO

from .canon import CanonicalForm, canonical_form
from .catalog import MAX_ORDER, read_digraph, write_digraph
from .core import Digraph, SearchParams, _order_text, moore_bound, verify
from .reach import geodetic_balls, layers

SPLIT_SLOTS = 4
CHECKPOINT_VERSION = 2

# The canon memo (see canonical_form) that every leaf of this process goes
# through.  split_tasks empties it, so each search starts with it empty,
# and search() empties it on return; a pool worker's copy ends with the pool.
_memo: dict = {}


@dataclass(frozen=True)
class SearchResult:
    form: CanonicalForm
    digraph: Digraph


@dataclass(frozen=True)
class SearchOutcome:
    """Search results sorted by canonical form.

    complete is True only when the whole space was exhausted: a node
    budget or result cap that stops exploration early clears it.
    """

    results: tuple[SearchResult, ...]
    nodes_explored: int
    complete: bool


def seed_tree(params: SearchParams) -> Digraph:
    """Forced breadth-first out-tree of vertex 0 for an order-n search.

    A partial digraph is a Digraph whose out-lists need not be full.
    Vertices 0..moore_bound(d, k-1)-1 get full out-lists (vertex i feeds
    d*i+1 .. d*i+d); the depth-k layer and the epsilon extra vertices
    stay open.  An order above catalog.MAX_ORDER raises ValueError.
    """
    d, k = params.d, params.k
    n = params.order
    if n > MAX_ORDER:
        raise ValueError(f"order {_order_text(n)} exceeds the limit of {MAX_ORDER}")
    internal = moore_bound(d, k - 1)
    return Digraph(n, [range(d * v + 1, d * v + d + 1) if v < internal else ()
                       for v in range(n)])


class _Engine:
    """Depth-first generator over one subtree, with undo.

    The partial digraph is held only as bitsets: out_mask[v] has bit w set
    for each decided arc v -> w and in_mask[w] bit v.  An out-list is full
    when its mask has d bits, and since it grows in increasing order its
    next target is at least the mask's bit_length().
    """

    def __init__(self, params: SearchParams, pruning: str, start: Digraph,
                 budget: int | None):
        if pruning not in ("full", "basic"):
            raise ValueError(f"unknown pruning mode {pruning!r}")
        self.params = params
        self.n = n = params.order
        self.d = params.d
        self.k = params.k
        self.diregular = params.diregular
        self.mult_mode = pruning == "full" and params.diregular
        self.budget = budget
        if start.n != n:
            raise ValueError(f"partial has order {start.n}, params require {n}")
        for v, targets in enumerate(start.out):
            if len(targets) > self.d:
                raise ValueError(f"vertex {v} has more than {self.d} out-neighbours")
        self.start = start
        # the empty digraph, whose k-balls are single vertices; enter() adds start's arcs
        self.out_mask = [0] * n
        self.in_mask = [0] * n
        self.balls = [1 << u for u in range(n)]
        self.max_used = -1
        self.moore = moore_bound(self.d, self.k)
        self.everyone = (1 << n) - 1
        self.nodes = 0
        self.stopped = False
        self.results: dict[bytes, Digraph] = {}
        self.tasks: list[Digraph] = []
        self.split_at: int | None = None

    # ---- state checks ----

    def enter(self) -> bool:
        """Land the start partial's arcs row by row; False means cut.

        Each arc goes through _check_after, as at every DFS node, so
        balls keeps the exact k-balls.  Stopping at the first cut gives
        the verdict of the whole partial: arcs only ever break geodecity
        and raise in-degrees, and a ball reaches full size only on an arc
        that fills a row, which is when the multiplicity cut runs.
        """
        out_mask, in_mask = self.out_mask, self.in_mask
        for v, targets in enumerate(self.start.out):
            for w in targets:
                out_mask[v] |= 1 << w
                in_mask[w] |= 1 << v
                self.max_used = max(self.max_used, v, w)
                if self.diregular and in_mask[w].bit_count() > self.d:
                    return False
                if self._check_after(v, w) is None:
                    return False
        return True

    def _check_after(self, v: int, w: int) -> list[tuple[int, int]] | None:
        """Test the walks through the new arc v -> w; None means cut.

        The partial was k-geodetic before the arc, so a source s at
        backward distance t from v reaches v by one walk, and its new
        walks follow that walk and the arc, then at most k-1-t steps
        from w.  Their ends must miss balls[s], which holds s itself, so
        closed walks count.  Walks from w can only meet each other by
        returning to w, which the source w then fails too; the scan of
        w's balls stops early for that case.  On success each such
        balls[s] gains the new ends and the (s, old ball) pairs are
        returned for undo; on a cut the balls are left as they were.
        """
        k, balls = self.k, self.balls
        ahead = geodetic_balls(self.out_mask, w, k - 1)
        if not ahead:
            return None
        undo = []
        for layer, new in zip(layers(self.in_mask, v, k - 1), reversed(ahead)):
            while layer:
                b = layer & -layer
                layer ^= b
                s = b.bit_length() - 1
                old = balls[s]
                if old & new:
                    for s, old in undo:
                        balls[s] = old
                    return None
                undo.append((s, old))
                balls[s] = old | new
        if self.mult_mode and self.out_mask[v].bit_count() == self.d:
            if not self._global_cuts():
                for s, old in undo:
                    balls[s] = old
                return None
        return undo

    def _global_cuts(self) -> bool:
        """False when a vertex is an outlier of more than epsilon finished balls.

        A finished ball pins its outliers for every completion.  A ball
        without duplicate walks is finished (it cannot grow further)
        exactly when it is full size: every vertex within k-1 steps then
        has its whole out-list.
        """
        eps, moore = self.params.epsilon, self.moore
        mult = [0] * self.n
        for acc in self.balls:
            if acc.bit_count() != moore:
                continue
            c = self.everyone & ~acc
            while c:
                b = c & -c
                c ^= b
                x = b.bit_length() - 1
                mult[x] += 1
                if mult[x] > eps:
                    return False
        return True

    # ---- generation ----

    def _next_open(self, hint: int) -> int | None:
        v = hint
        while v < self.n and self.out_mask[v].bit_count() == self.d:
            v += 1
        return v if v < self.n else None

    def _rows(self) -> list[list[int]]:
        """The decided out-lists, decoded from out_mask one set bit at a time."""
        rows = []
        for m in self.out_mask:
            row = []
            while m:
                b = m & -m
                m ^= b
                row.append(b.bit_length() - 1)
            rows.append(row)
        return rows

    def _emit(self) -> None:
        """Keep a leaf whose class is new, verified; isomorphs pass or fail verify together."""
        g = Digraph(self.n, self._rows())
        form = canonical_form(g, _memo).data
        if form in self.results:
            return
        if not verify(g, self.params).ok:
            raise RuntimeError("internal error: generated digraph fails verification")
        self.results[form] = g

    def _dfs(self, hint: int, depth: int) -> None:
        v = self._next_open(hint)
        if v is None:
            self._emit()
            return
        if self.split_at is not None and depth == self.split_at:
            self.tasks.append(Digraph(self.n, self._rows()))
            return
        out_mask, in_mask = self.out_mask, self.in_mask
        hi = min(self.n - 1, max(self.max_used, v) + 1)
        d, balls = self.d, self.balls
        for w in range(out_mask[v].bit_length(), hi + 1):
            if w == v:
                continue
            if self.diregular and in_mask[w].bit_count() >= d:
                continue
            if self.budget is not None and self.nodes >= self.budget:
                self.stopped = True
                return
            self.nodes += 1
            saved_max = self.max_used
            out_mask[v] |= 1 << w
            in_mask[w] |= 1 << v
            if self.max_used < w:
                self.max_used = w
            if self.max_used < v:
                self.max_used = v
            undo = self._check_after(v, w)
            if undo is not None:
                self._dfs(v, depth + 1)
                for s, old in undo:
                    balls[s] = old
            out_mask[v] ^= 1 << w
            in_mask[w] ^= 1 << v
            self.max_used = saved_max
            if self.stopped:
                return

    def run(self, split_at: int | None = None) -> None:
        self.split_at = split_at
        if self.enter():
            self._dfs(0, 0)


def split_tasks(params: SearchParams, pruning: str = "full") -> tuple[list[Digraph], dict]:
    """First stage of a search: expand the seed by SPLIT_SLOTS arc decisions.

    Returns the surviving partials as independent tasks plus a stats dict
    with nodes, results found below the split depth, and a stopped flag,
    which stays False because the split has no node budget.  It empties
    the canon memo first, since every search starts with its split.
    """
    _memo.clear()
    engine = _Engine(params, pruning, seed_tree(params), budget=None)
    engine.run(split_at=SPLIT_SLOTS)
    stats = {
        "nodes": engine.nodes,
        "results": dict(engine.results),
        "stopped": engine.stopped,
    }
    return engine.tasks, stats


def run_task(params: SearchParams, task: Digraph, pruning: str = "full",
             budget: int | None = None) -> tuple[dict[bytes, Digraph], int, bool]:
    """Exhaust one search subtree; returns (results, nodes, stopped).

    stopped is set when the node budget ran out before the subtree did.
    """
    engine = _Engine(params, pruning, task, budget=budget)
    engine.run()
    return dict(engine.results), engine.nodes, engine.stopped


class Checkpoint:
    """A JSON file of the tasks a search finished, so that it can resume.

    Its key holds the format version, the search, the split depth and a
    sha256 of the split task list, so a file from another search or from
    an engine that splits differently is refused.  Each record holds a
    task's node count and its results as hex canonical form -> digraph
    text.  Resuming and progress lines go to log.
    """

    def __init__(self, path: str, log: TextIO | None = None):
        self.path = path
        self.log = log or sys.stderr
        self.done: dict[str, dict] = {}

    def _bad(self, why: str) -> ValueError:
        return ValueError(f"checkpoint {self.path}: {why}")

    def restore(self, params: SearchParams, pruning: str,
                tasks: list[Digraph]) -> dict[int, tuple[dict[bytes, Digraph], int]]:
        """Read and check the whole file; returns (results, nodes) by task index.

        Call it before save and flush.  A missing file is a fresh start,
        written at once, so that a path that cannot be written fails before
        any task runs.  Every restored result must verify and be stored
        under its own canonical form.  A fault raises ValueError and leaves
        the file as it was.
        """
        shape = json.dumps([task.out for task in tasks]).encode()
        self.total = len(tasks)
        self.key = {"version": CHECKPOINT_VERSION, "d": params.d, "k": params.k,
                    "excess": params.epsilon, "diregular": params.diregular,
                    "pruning": pruning, "split_slots": SPLIT_SLOTS,
                    "tasks": hashlib.sha256(shape).hexdigest()}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
        except FileNotFoundError:
            try:
                self.flush()
            except OSError as exc:
                raise self._bad(f"cannot write it: {exc}") from None
            return {}
        except (OSError, ValueError) as exc:
            raise self._bad(f"cannot read it: {exc}") from None
        if not (isinstance(saved, dict) and set(saved) == {"key", "done"}
                and isinstance(saved["done"], dict)):
            raise self._bad("not a checkpoint file")
        if saved["key"] != self.key:
            raise self._bad("written by another format version, search or task list")
        restored = {}
        for name, record in saved["done"].items():
            if not (name.isdecimal() and name == str(int(name)) and int(name) < self.total):
                raise self._bad(f"task index {name!r} is not in 0..{self.total - 1}")
            if not (isinstance(record, dict) and set(record) == {"nodes", "results"}
                    and type(record["nodes"]) is int and record["nodes"] >= 0
                    and isinstance(record["results"], dict)
                    and all(isinstance(text, str) for text in record["results"].values())):
                raise self._bad(f"task {name}: malformed record")
            try:
                results = {bytes.fromhex(form): read_digraph(text)
                           for form, text in record["results"].items()}
            except ValueError as exc:
                raise self._bad(f"task {name}: {exc}") from None
            for data, g in results.items():
                if not verify(g, params).ok:
                    raise self._bad(f"task {name}: result {data.hex()} does not verify")
                if canonical_form(g).data != data:
                    raise self._bad(f"task {name}: result {data.hex()} is not its digraph's canonical form")
            restored[int(name)] = results, record["nodes"]
        self.done = saved["done"]
        print(f"resuming: {len(self.done)} tasks already finished", file=self.log)
        return restored

    def save(self, index: int, results: dict[bytes, Digraph], nodes: int,
             explored: int) -> None:
        """Record a finished task, its results in form order, and rewrite the file."""
        texts = {form.hex(): write_digraph(g) for form, g in sorted(results.items())}
        self.done[str(index)] = {"nodes": nodes, "results": texts}
        self.flush()
        print(f"progress tasks={len(self.done)}/{self.total} nodes={explored}", file=self.log)

    def flush(self, exhausted: bool = False) -> None:
        """Rewrite the file; search() flushes even if no task ran, so a rerun replays."""
        if exhausted:
            print(f"progress tasks={len(self.done)}/{self.total} budget exhausted", file=self.log)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"key": self.key, "done": self.done}, fh)
            fh.write("\n")
        os.replace(tmp, self.path)


def search(params: SearchParams, jobs: int = 1, pruning: str = "full",
           checkpoint: Checkpoint | None = None) -> SearchOutcome:
    """Exhaustive isomorph-free search for digraphs matching params.

    Every vertex gets out-degree exactly d; the diregular flag adds the
    in-degree d requirement.  The split always runs in full; its tasks run
    in at most jobs processes (no more than the pending tasks or the
    cores) and are taken in index order.  params.max_nodes
    counts the split, then each task: a task is accepted only if it
    finished within the budget still left, and the first that did not is
    discarded and ends the run, as does reaching params.max_results
    classes.  A checkpoint restores finished tasks, which cost no budget,
    and saves each accepted task as it lands.  So the outcome is identical
    for any jobs, with or without a checkpoint.  The leaves of one call
    share the canon memo of each process, which is emptied on return.  A
    run that stops early cancels the pool's queued tasks and waits for the
    running ones; no worker is killed.
    """
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")
    tasks, stats = split_tasks(params, pruning)
    restored = checkpoint.restore(params, pruning, tasks) if checkpoint else {}
    pending = [i for i in range(len(tasks)) if i not in restored]
    merged: dict[bytes, Digraph] = dict(stats["results"])
    nodes = stats["nodes"]
    left = None if params.max_nodes is None else params.max_nodes - nodes
    complete = exhausted = False
    # more workers than pending tasks or cores would only sit idle
    workers = min(jobs, len(pending), os.cpu_count() or 1)
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # Every task gets the budget left after the split (below 0 it stops
        # at once); the acceptance check makes that agree with the budget left now.
        outcomes = (pool.map if pool else map)(run_task, repeat(params),
                                               [tasks[i] for i in pending],
                                               repeat(pruning), repeat(left))
        for idx in range(len(tasks)):
            if params.max_results is not None and len(merged) >= params.max_results:
                break
            if idx in restored:
                task_results, task_nodes = restored[idx]
            else:
                task_results, task_nodes, task_stopped = next(outcomes)
                if left is not None:
                    if task_stopped or task_nodes > left:
                        exhausted = True
                        break
                    left -= task_nodes
                if checkpoint:
                    checkpoint.save(idx, task_results, task_nodes, nodes + task_nodes)
            nodes += task_nodes
            for data, g in task_results.items():
                merged.setdefault(data, g)
        else:
            complete = True
    finally:
        # killing a worker mid-write can hang the pool, so an early stop
        # only drops the tasks that have not started
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _memo.clear()
    if checkpoint:
        checkpoint.flush(exhausted)
        if exhausted and len(checkpoint.done) == len(restored):
            print(f"stalled: task {idx} needs more than the {max(left, 0)} nodes left after "
                  "the split; rerunning with this budget cannot progress", file=checkpoint.log)
    ordered = sorted(merged.items())
    if params.max_results is not None and len(ordered) > params.max_results:
        ordered = ordered[: params.max_results]
        complete = False
    results = tuple(SearchResult(form=CanonicalForm(data), digraph=g) for data, g in ordered)
    return SearchOutcome(results=results, nodes_explored=nodes, complete=complete)
