"""Isomorph-free exhaustive generation of k-geodetic digraphs of a given order.

The generator grows out-lists in vertex order, lowest open slot first.
Vertex 0's tree is pre-labeled: in a k-geodetic digraph with out-degree
exactly d every vertex sees a full d-ary tree of depth k, so the first
moore_bound(d, k) vertices can be fixed in breadth-first order for free.
Later targets must keep each out-list strictly increasing, and a brand
new vertex may only enter as the smallest unused index.  Every digraph
with out-degree exactly d has a relabeling that the grammar produces, so
nothing is lost; duplicates that survive are removed by canonical form,
and each class is verified once per search process.

Pruning is incremental, and every cut is sound: it only fires on partials
no valid completion can extend.  _Engine keeps the partial as bitsets and
every vertex's stored k-ball.  Its walk, _dfs, opens one frame per open
row: _frame gathers what an arc out of the row's vertex is tested
against, _check tests an arc before it lands, _land is the only code that
adds one, and _grow commits a filled row to the stored balls and applies
the multiplicity cut of full diregular mode.  A task's start partial
enters through the same _check and _land (enter), so every state is
checked by the same code.  search() splits the walk into tasks, runs them
in a pool and merges their classes, and Checkpoint lets it resume.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import TextIO

from .canon import CanonicalForm, canonical_form
from .catalog import MAX_ORDER, _shown, read_digraph, write_digraph
from .core import Digraph, SearchParams, _members, _order_text, moore_bound, verify
from .reach import geodetic_balls, layers

SPLIT_SLOTS = 4
CHECKPOINT_VERSION = 2

# The canon memo (see canonical_form) that every leaf of this process goes
# through, the (params, form) pairs whose class has passed verify, and the
# rows decoded from the engine's masks (see _Rows).  split_tasks empties
# all three, so each search starts with them empty, and search() empties
# them on return; a pool worker's copies end with the pool.
_memo: dict = {}
_verified: set = set()


# mask -> its set bits, lowest first, decoded on first use: a d-out row of
# order n is one of at most sum C(n, i), i <= d, masks, so the leaves and
# tasks of a search decode a few masks over and over
class _Rows(dict):
    def __missing__(self, mask: int) -> tuple[int, ...]:
        row = self[mask] = _members(mask, mask.bit_length())
        return row


_decoded = _Rows()


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
    """Depth-first generator over one subtree.

    The partial digraph is held only as bitsets: out_mask[v] has bit w set
    for each decided arc v -> w and in_mask[w] bit v.  An out-list is full
    when its mask has d bits, and since it grows in increasing order its
    next target is at least the mask's bit_length().  max_used is the
    highest vertex in use.  In diregular mode in_full has bit w once w's
    in-degree reaches d, so w is offered no more arcs; in out-regular mode,
    where in-degrees are free, it stays empty.  balls[s] holds the k-ball
    of s as of the last filled row; the arcs out of a vertex whose row is
    still open live in its frame's pending sets (see _frame).  shut holds
    the multiplicity counts (see _grow) and stays 0 unless that cut is on.
    The sets kept per backward layer t < k are packed, all k in one int
    with layer t's in the n-bit field at bit t*n, so one int op does for k
    list items.

    The cost per fresh frame is one backward scan and one candidate mask,
    per derived frame a few ORs; per barred candidate a count and no more;
    per live candidate one AND, after one forward scan unless it has no
    out-arc; per kept arc whose child would have no live candidate one AND
    and a count; and per filled row one pass over the sources plus one
    shift, AND and OR per finished ball.
    """

    def __init__(self, params: SearchParams, pruning: str, start: Digraph,
                 budget: int | None):
        if pruning not in ("full", "basic"):
            raise ValueError(f"unknown pruning mode {pruning!r}")
        self.params = params
        self.n = n = params.order
        self.d = params.d
        self.k = params.k
        # no in-degree reaches n, so in_full stays empty in out-regular mode
        self.full_in = self.d if params.diregular else n
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
        self.shut = 0
        self.max_used = -1
        self.in_full = 0
        self.moore = moore_bound(self.d, self.k)
        self.everyone = (1 << n) - 1
        # bit j*n for each of shut's fields j <= epsilon, so out * levels is out in every one
        self.levels = ((1 << (params.epsilon + 1) * n) - 1) // self.everyone
        self.top = params.epsilon * n  # shut >> top is field epsilon
        # bit t*n of spread for each layer t < k: (1 << w) * spread is w in every field
        self.spread = sum(1 << t * n for t in range(self.k))
        # spans[j] covers fields 0..j-1, the fields of a frame with j layers
        self.spans = [(1 << t * n) - 1 for t in range(self.k + 1)]
        self.nodes = 0
        self.results: dict[bytes, Digraph] = {}
        self.tasks: list[Digraph] = []
        self.split_at: int | None = None

    # ---- state checks ----

    def enter(self) -> bool:
        """Land the start partial's arcs row by row; False means cut.

        Each arc is barred, tested and added as at a DFS node, against a
        frame built for it alone, and its new ends are committed to the stored
        balls at once, even mid-row, since a task's start may end with a
        row open and the DFS then builds its first frame from the balls.
        Mid-row this installs what _grow returns, which finishes no ball
        and so cannot cut: every source it grows lies within k-1 steps of
        v, whose row is open.  Stopping at the first cut gives the verdict
        of the whole partial: arcs only ever break geodecity and raise
        in-degrees, and a ball reaches full size only on an arc that fills
        a row, which is when the multiplicity cut runs.
        """
        for v, w in self.start.arcs():
            frame = self._frame(v)
            if (self.in_full | frame[2]) >> w & 1:
                return False
            ahead = self._check(v, w, frame)
            if not (ahead and self._land(v, w, ahead, frame)):
                return False
            if self.out_mask[v].bit_count() < self.d:
                self.balls, self.shut = self._grow(frame[0], ahead)
        return True

    def _frame(self, v: int) -> tuple[list[int], int, int, int]:
        """The data every arc out of v is checked against, from the stored balls.

        Returns v's backward layers L_t for t < k, the union U_t of the
        stored balls of each layer's sources, packed, their union U, and
        the packed pending sets P_t, empty here; a field past the last
        layer is empty.  No arc out of v moves the layers, since v is
        their depth 0, and each source of L_t gains the same set from
        one, w's ball of radius k-1-t.  So while v's row stays open the
        next frame for v is derived from this one, not scanned: _dfs ORs
        what _check returned, cut to the layers' fields, into U_t and
        P_t, and its field 0, the largest, into U.
        P_t holds what the sources of L_t have gained since the stored
        balls were brought up to date: their k-balls are balls[s] | P_t,
        and the arc that fills the row commits P_t to them.
        """
        balls, n = self.balls, self.n
        found = layers(self.in_mask, v, self.k - 1)
        unions = union = 0
        for t, layer in enumerate(found):
            u = 0
            while layer:
                b = layer & -layer
                layer ^= b
                u |= balls[b.bit_length() - 1]
            unions |= u << t * n
            union |= u
        return found, unions, union, 0

    def _check(self, v: int, w: int, frame: tuple[list[int], int, int, int]) -> int:
        """Test the walks that the arc v -> w would add, without adding it.

        Returns 0 when the arc would be cut, else w's balls of radius
        k-1, k-2, ..., 0, the sets that the sources of v's layers L_0,
        L_1, ... would gain, packed as the frame's U_t are.  It is never
        0, since field 0 holds w.  w must lie outside the frame's union
        U (see _dfs).  The partial is k-geodetic, so a source s at
        backward distance t from v reaches v by one walk, and its new
        walks follow that walk and the arc, then at most k-1-t steps from
        w.  Their ends must miss the k-ball of s, which holds s itself,
        so closed walks count.  A set meets some source's ball of layer t
        exactly when it meets their union U_t, so one AND tests every
        layer.  Since every stored ball holds its source, w is no source
        of v's layers, so no walk of length at most k-1 from w reaches v:
        w's balls are the same with the arc as without it, which is why
        the test can come before the arc lands.  A w with no out-arc has
        ball {w} at every radius and needs no scan.
        """
        if not self.out_mask[w]:
            return (1 << w) * self.spread
        ahead = geodetic_balls(self.out_mask, w, self.k - 1, self.n)
        return 0 if frame[1] & ahead else ahead

    def _land(self, v: int, w: int, ahead: int, frame: tuple[list[int], int, int, int]) -> bool:
        """Add the arc v -> w, which _check kept with the sets ahead; False means cut.

        The only code that sets a mask bit or adds to in_full.  An arc
        that leaves v's row open touches no stored ball and cannot cut:
        the caller carries ahead in the frame's pending sets.  The arc
        that fills the row has _grow commit the pending sets and its own
        to a copy of balls and shut, which may cut; only a kept fill
        installs them and lands, so a cut changes nothing.
        """
        out_mask, in_mask = self.out_mask, self.in_mask
        if out_mask[v].bit_count() == self.d - 1:
            grown = self._grow(frame[0], frame[3] | ahead)
            if grown is None:
                return False
            self.balls, self.shut = grown
        out_mask[v] |= 1 << w
        in_mask[w] |= 1 << v
        if in_mask[w].bit_count() >= self.full_in:
            self.in_full |= 1 << w
        if self.max_used < w:
            self.max_used = w
        if self.max_used < v:
            self.max_used = v
        return True

    def _grow(self, found: list[int], news: int) -> tuple[list[int], int] | None:
        """The stored balls with field t of news ORed into each source of found[t], and shut.

        Returns a new (balls, shut) pair, or None for a cut, and changes
        nothing.  Without duplicate walks a ball is full exactly when
        every vertex within k-1 steps of its source has its whole
        out-list, so it is then finished.  shut counts, for each vertex,
        the finished balls that miss it, in unary: u is in field j, bits
        j*n to j*n+n-1, when its count is above j, for j <= epsilon, so
        the fields are nested.  In full diregular mode each of a finished
        ball's epsilon outliers, the set out, gains one: field j takes
        out's part of field j-1, by one shift, AND and OR, and field 0 all
        of out.  Field epsilon holds the vertices shut out of more than
        epsilon finished balls, so the first ball that makes it nonempty
        cuts, and it is empty on every kept state.
        """
        balls, moore, mult, shut = self.balls[:], self.moore, self.mult_mode, self.shut
        n, everyone, levels, top = self.n, self.everyone, self.levels, self.top
        for t, layer in enumerate(found):
            new = news >> t * n & everyone
            while layer:
                b = layer & -layer
                layer ^= b
                s = b.bit_length() - 1
                ball = balls[s] | new
                balls[s] = ball
                if mult and ball.bit_count() == moore:
                    out = everyone ^ ball
                    shut |= (shut << n | out) & out * levels
                    if shut >> top:
                        return None
        return balls, shut

    # ---- generation ----

    def _next_open(self, v: int) -> int | None:
        while v < self.n and self.out_mask[v].bit_count() == self.d:
            v += 1
        return v if v < self.n else None

    def _digraph(self) -> Digraph:
        """The partial as a Digraph, its rows and in-lists decoded from the masks.

        The masks hold what Digraph() would check and build, since out_mask
        and in_mask are set together, bit by bit, so it is built as it is.
        """
        row = _decoded.__getitem__
        return Digraph._unchecked(self.n, tuple(map(row, self.out_mask)), tuple(map(row, self.in_mask)))

    def _emit(self) -> None:
        """Keep the task's first leaf of each class, and verify each class once per process.

        Once is enough, because isomorphic digraphs pass or fail verify together.
        """
        g = self._digraph()
        form = canonical_form(g, _memo).data
        if (self.params, form) not in _verified:
            if not verify(g, self.params).ok:
                raise RuntimeError("internal error: generated digraph fails verification")
            _verified.add((self.params, form))
        self.results.setdefault(form, g)

    def _dfs(self) -> None:
        """Walk the subtree of the current state depth first, on an explicit stack.

        The stack, not Python's recursion limit, bounds the depth.  A
        frame is [v, w, live, barred, saved, frame, last]: the open vertex
        v, the candidate w whose arc is landed while its child is walked
        (-1 before the first), the live and barred candidates not yet
        passed, the balls, shut, max_used and in_full it opened with, v's
        frame, and the bound below which an arc's child may be counted in
        this frame.  Every row below v is full, so the next open vertex is
        looked up from v.
        The candidates are the targets from v's next slot up to one past
        the highest vertex in use, without v and in_full; none of this
        moves while the frame is open, so one bitmask holds them.  Those
        in the frame's union U are barred, since an arc to one would give
        some source a second walk of length at most k to it, or a closed
        one; they are counted by popcount and never tested.  The rest are
        live and go to _check in increasing order.  The frame for the
        vertex whose row its parent left open is derived from the
        parent's (see _frame); any other is built by _frame from the
        stored balls.  A frame with no live candidate is counted and
        never pushed.
        A kept arc that leaves v's row open is not landed when its child
        would have no live candidate.  The child's candidates would be
        this frame's live and barred ones above w, and w + 1 as well when
        w is the newcomer; of these, w + 1, which no ball holds, and the
        live ones outside w's ball of radius k-1 would be live.  So for a
        w below last the child is counted here by one popcount when no
        live one above w lies outside that ball.  last is the newcomer
        when it brings a w + 1 and n otherwise, and 0 when an arc fills
        the row or the walk splits, so that no task is dropped.  Every
        candidate is a node, barred, cut or landed, and so is every
        candidate of a child counted in its parent.
        A cut changes nothing, and a filled row installs new balls and
        shut rather than changing the old ones, so the only arc a frame
        takes back is the one it landed, in this one place: it clears its
        two mask bits and puts back what it saved, without copying.  The
        budget is tested once per landed arc: once the nodes pass it the
        walk returns with its arcs still landed, and run_task reports it
        stopped.
        """
        n, d, budget, everyone = self.n, self.d, self.budget, self.everyone
        out_mask, in_mask = self.out_mask, self.in_mask
        check, land = self._check, self._land
        counting = self.split_at is None
        stack: list[list] = []
        v = 0
        while True:
            if budget is not None and self.nodes > budget:
                return
            v = self._next_open(v)
            if v is None:
                self._emit()
            elif len(stack) == self.split_at:
                self.tasks.append(self._digraph())
            else:
                lo = out_mask[v].bit_length()
                hi = self.max_used if self.max_used > v else v
                if hi < n - 1:
                    hi += 1
                cands = ((2 << hi) - (1 << lo)) & ~(1 << v) & ~self.in_full
                if stack and stack[-1][0] == v:
                    found, unions, union, pending = stack[-1][5]
                    union |= ahead & everyone
                    ahead &= self.spans[len(found)]
                    frame = found, unions | ahead, union, pending | ahead
                else:
                    frame = self._frame(v)
                    union = frame[2]
                live = cands & ~union
                if live:
                    last = 0
                    if counting and out_mask[v].bit_count() < d - 1:
                        last = hi if hi < n - 1 else n
                    stack.append([v, -1, live, cands & union,
                                  (self.balls, self.shut, self.max_used, self.in_full),
                                  frame, last])
                else:
                    self.nodes += cands.bit_count()
            while stack:
                top = stack[-1]
                v, w, live, barred, saved, frame, last = top
                if w >= 0:
                    out_mask[v] ^= 1 << w
                    in_mask[w] ^= 1 << v
                    self.balls, self.shut, self.max_used, self.in_full = saved
                while live:
                    b = live & -live
                    live ^= b
                    below = barred & (b - 1)
                    barred ^= below
                    self.nodes += below.bit_count() + 1
                    w = b.bit_length() - 1
                    ahead = check(v, w, frame)
                    if not ahead:
                        continue
                    # live lies below bit n, so this reads w's ball of radius k-1 alone
                    if w < last and not live & ~ahead:
                        self.nodes += (live | barred).bit_count()
                        continue
                    if land(v, w, ahead, frame):
                        break
                else:
                    self.nodes += barred.bit_count()
                    stack.pop()
                    continue
                top[1:4] = w, live, barred
                break
            else:
                return

    def run(self, split_at: int | None = None) -> None:
        self.split_at = split_at
        if self.enter():
            self._dfs()


def split_tasks(params: SearchParams, pruning: str = "full") -> tuple[list[Digraph], dict]:
    """First stage of a search: expand the seed by SPLIT_SLOTS arc decisions.

    Returns the surviving partials as independent tasks plus a stats dict
    with nodes, results found below the split depth, and a stopped flag,
    which stays False because the split has no node budget.  It empties
    the canon memo, the verified classes and the decoded rows first, since
    every search starts with its split.
    """
    _memo.clear()
    _verified.clear()
    _decoded.clear()
    engine = _Engine(params, pruning, seed_tree(params), budget=None)
    engine.run(split_at=SPLIT_SLOTS)
    stats = {
        "nodes": engine.nodes,
        "results": engine.results,
        "stopped": False,
    }
    return engine.tasks, stats


def run_task(params: SearchParams, task: Digraph, pruning: str = "full",
             budget: int | None = None) -> tuple[dict[bytes, Digraph], int, bool]:
    """Exhaust one search subtree; returns (results, nodes, stopped).

    stopped is set when the subtree has more nodes than budget.  The walk
    then ends at its first landed arc past the budget, so nodes exceeds
    budget and results holds the classes found up to there; search()
    throws such a task away whole.
    """
    engine = _Engine(params, pruning, task, budget=budget)
    engine.run()
    return engine.results, engine.nodes, budget is not None and engine.nodes > budget


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

        Call it before save and flush.  A missing file is a fresh start.
        Once read, the file is rewritten at once, so that a path that cannot
        be written fails before any task runs.  Every restored result must
        verify and be stored under its own canonical form.  A fault raises
        ValueError and leaves the file as it was.
        """
        import hashlib  # only a checkpointed search hashes, so others skip the import

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
            self.flush()
            return {}
        except (OSError, ValueError) as exc:
            raise self._bad(f"cannot read it: {exc}") from None
        if not (isinstance(saved, dict) and set(saved) == {"key", "done"}
                and isinstance(saved["done"], dict)):
            raise self._bad("not a checkpoint file")
        if saved["key"] != self.key:
            raise self._bad("written by another format version, search or task list")
        restored, index = {}, {str(i): i for i in range(self.total)}
        for name, record in saved["done"].items():
            if name not in index:
                raise self._bad(f"task index {_shown(name, repr)} is not in 0..{self.total - 1}")
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
            restored[index[name]] = results, record["nodes"]
        self.done = saved["done"]
        self.flush()
        print(f"resuming: {len(self.done)} tasks already finished", file=self.log)
        return restored

    def save(self, index: int, results: dict[bytes, Digraph], nodes: int,
             explored: int) -> None:
        """Record a finished task, its results in form order, and rewrite the file."""
        texts = {form.hex(): write_digraph(g) for form, g in sorted(results.items())}
        self.done[str(index)] = {"nodes": nodes, "results": texts}
        self.flush()
        print(f"progress tasks={len(self.done)}/{self.total} nodes={explored}", file=self.log)

    def flush(self) -> None:
        """Rewrite the file through PATH.tmp; restore and every save call it.

        A file that cannot be written raises ValueError and leaves no PATH.tmp.
        """
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                # json.dumps encodes in C; json.dump to a file runs the pure-Python encoder
                fh.write(json.dumps({"key": self.key, "done": self.done}) + "\n")
            os.replace(tmp, self.path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise self._bad(f"cannot write it: {exc}") from None


def search(params: SearchParams, jobs: int = 1, pruning: str = "full",
           checkpoint: Checkpoint | None = None) -> SearchOutcome:
    """Exhaustive isomorph-free search for digraphs matching params.

    Every vertex gets out-degree exactly d; the diregular flag adds the
    in-degree d requirement.  The split always runs in full; its tasks run
    in at most jobs processes (no more than the pending tasks or the
    cores this process may run on) and are taken in index order.
    params.max_nodes counts the split, then each task: a task is
    accepted only if its nodes fit in the budget still left, which a
    stopped task's never do, and the first that does not fit is discarded
    whole and ends the run, as does reaching params.max_results classes.
    A checkpoint restores finished tasks, which cost no budget, and saves
    each accepted task as it lands.  So the outcome is identical for any
    jobs, with or without a checkpoint.  The leaves of one call share the
    canon memo and verified classes of each process, which are emptied
    on return.  A run that stops early cancels the pool's queued
    tasks and waits for the running ones; no worker is killed.
    """
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")
    tasks, stats = split_tasks(params, pruning)
    restored = checkpoint.restore(params, pruning, tasks) if checkpoint else {}
    todo = [task for i, task in enumerate(tasks) if i not in restored]
    merged: dict[bytes, Digraph] = dict(stats["results"])
    nodes = stats["nodes"]
    left = None if params.max_nodes is None else params.max_nodes - nodes
    complete = exhausted = False
    # more workers than pending tasks or the cores this process may use would only sit idle
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(todo), cores)
    pool = None
    if workers > 1:
        import concurrent.futures  # only a pooled search pays for the import

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        # Every task gets the budget left after the split (below 0 it stops
        # at once); the acceptance check makes that agree with the budget left now.
        outcomes = (pool.map if pool else map)(run_task, repeat(params), todo,
                                               repeat(pruning), repeat(left))
        for idx in range(len(tasks)):
            if params.max_results is not None and len(merged) >= params.max_results:
                break
            if idx in restored:
                task_results, task_nodes = restored[idx]
            else:
                task_results, task_nodes, _ = next(outcomes)
                if left is not None:
                    # a stopped task has more nodes than its budget, which is at least left
                    if task_nodes > left:
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
        _verified.clear()
        _decoded.clear()
    if checkpoint and exhausted:
        print(f"progress tasks={len(checkpoint.done)}/{checkpoint.total} budget exhausted",
              file=checkpoint.log)
        if len(checkpoint.done) == len(restored):
            print(f"stalled: task {idx} needs more than the {max(left, 0)} nodes left after "
                  "the split; rerunning with this budget cannot progress", file=checkpoint.log)
    ordered = sorted(merged.items())
    if params.max_results is not None and len(ordered) > params.max_results:
        ordered = ordered[: params.max_results]
        complete = False
    results = tuple(SearchResult(form=CanonicalForm(data), digraph=g) for data, g in ordered)
    return SearchOutcome(results=results, nodes_explored=nodes, complete=complete)
