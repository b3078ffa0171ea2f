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

Pruning is incremental.  The engine stores every vertex's k-ball.  After
an arc v -> w lands, only sources that reach v within k-1 steps gain
walks, and the new ones all run through the arc: a source t steps from
v gains w's ball of radius k-1-t, which must not meet its stored ball.
No arc out of v moves v's backward layers, so a DFS frame scans them
once and ORs each layer's stored balls into one set per layer, and their
union U.  The k per-layer sets are packed into one int, layer t's set in
the n-bit field at bit t*n, and so are the sets an arc adds.  The frame
also builds its candidate targets once, as one bitmask.  A candidate w
in U would give some source a second walk of length at most k to w, or a
closed one, so it is barred: the frame counts the barred candidates in
bulk, by popcount, and never tests them; a frame with no other candidate
is not even pushed.  A live candidate, one outside U, is tested before
its arc lands, since its balls of radius at most k-1 are the same with
the arc as without it: one forward scan of w's balls, packed the same
way, and one AND against the layers' packed sets, or nothing at all when
w has no out-arc yet.  A cut arc never touches the state, whichever cut
it meets (see the multiplicity cut below).  A kept arc that leaves v's
row open leads to a frame for v whose candidates are known at once: the
frame's remaining ones above w, and one more when w is a newcomer, and
the live ones among them are those outside w's ball of radius k-1.  When
none is live, the child is counted in its parent by one popcount and the
arc is never landed, except while the walk splits, so that no task is
dropped.
The stored balls change once per filled row, not once per arc: every
source of one layer gains the same set, so while v's row is open a kept
arc only adds that set to the layer's set and to its pending set, in the
next frame for v, which is derived from its parent with no backward
scan: one OR per packed int.  The arc that fills the row commits the
pending sets to a copy of the balls, so a frame puts back the balls it
opened with by reference.
Every arc is tested by one method and added by another: a task's start
partial enters through them, one arc at a time from the empty digraph,
and so does each DFS node, so every state is checked by the same code.
Both bar a target in U or in in_full before the test, so the test only
sees live targets.  The frames sit on an explicit stack, so Python's
recursion limit does not bound the depth of a search.  Full pruning in
diregular mode adds one more cut when a row fills: a ball that the fill
makes full is finished, and a vertex shut out of more than epsilon
finished k-balls cuts.  The counts are one int in unary, the vertices
counted more than j times in the n-bit field at bit j*n, so a finished
ball counts its outliers by one shift, AND and OR, and the cut reads
field epsilon.  It is decided on a copy of the balls and on the counts
before the arc lands, and only a kept fill installs them, so
backtracking is the one place where an arc is taken back.  All cuts are
sound: they only fire on partials no valid completion can extend.
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
from .catalog import MAX_ORDER, read_digraph, write_digraph
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
    where in-degrees are free, it stays empty.  balls[s] holds
    the k-ball of s as of the last filled row: the arcs out of a vertex
    whose row is still open live in its frame's pending sets instead (see
    _frame).  shut counts, for each vertex u, the finished balls that
    miss u, in unary: u is in field j, bits j*n to j*n+n-1, when its
    count is above j, for j <= epsilon, so the fields are nested and
    field epsilon is empty on every kept state.  It stays 0 unless the
    multiplicity cut is on.  The sets kept per backward
    layer t < k are packed, all k in one int with layer t's in the n-bit
    field at bit t*n, so one int op does for k list items.
    _check tests an arc against
    the frame of its tail and changes nothing; _land is the only code
    that adds an arc, one that _check kept, and it decides a row fill on
    copies before it changes anything, so neither cut touches the
    state.  _check tests a live arc only: enter() and _dfs bar a target
    in in_full or in the frame's union U first.  The cost per fresh
    frame is one backward scan and one candidate mask, per same-vertex
    frame a few ORs on its parent's frame; per barred candidate (one in
    the frame's union U) a count and no more; per live candidate with no
    out-arc a test and no scan, per other live candidate one forward scan
    and one AND; per kept arc whose child would have no live candidate one
    AND and a count; and per filled row one pass over the sources plus
    one shift, AND and OR per finished ball.  A filled row installs a
    grown copy of balls and a new shut, never changing what a frame saw,
    so _dfs takes each landed arc back, in one place, by clearing its two
    mask bits and putting back the frame's balls, shut, max_used and
    in_full, without copying.
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

        Each arc is tested by _check and added by _land, as at every DFS
        node, with a frame built for it alone, and its new ends are
        committed to the stored balls at once, even mid-row, since a
        task's start may end with a row open and the DFS then builds its
        first frame from the balls.  Mid-row this installs what _grow
        returns, which finishes no ball and so cannot cut: every source
        it grows lies within k-1 steps of v, whose row is open.  An arc
        into a vertex of in_full, one of in-degree d in diregular mode, or
        into the frame's union U is refused before _check, as the DFS's
        candidate mask filters both.
        Stopping at the first cut gives the verdict of the whole partial:
        arcs only ever break geodecity and raise in-degrees, and a ball
        reaches full size only on an arc that fills a row, which is when
        the multiplicity cut runs.
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
        stored balls of each layer's sources, their union U, and each
        layer's pending set P_t, which is empty here.  The U_t are packed
        into one int, U_t in the n-bit field at bit t*n, and so are the
        P_t; a field past the last layer is empty.  Landing an arc out of
        v leaves the layers alone, since v is their depth 0, and each
        source of L_t gains the same set, w's ball of radius k-1-t.  So
        while v's row stays open the child frame is derived, not scanned:
        _dfs ORs the packed sets _check returned into the packed U_t and
        P_t, in the fields of v's layers, and field 0 into U.  P_t holds
        what the sources of L_t have gained since the stored balls were
        brought up to date.  Their k-balls are then balls[s] | P_t, and
        the arc that fills the row commits P_t to them.
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
        L_1, ... would gain, packed as the frame's U_t are: the ball of
        radius k-1-t in field t.  It is never 0, since field 0 holds w.
        frame is v's frame for the current state,
        which this leaves as it is.  w must lie outside the frame's union
        U: an arc to a w in U would give some source a second walk to w,
        and every caller bars it first.  The partial is k-geodetic, so a
        source s at backward distance t from v reaches v by one walk, and
        its new walks follow that walk and the arc, then at most k-1-t
        steps from w.  Their ends must miss the k-ball of s, which holds
        s itself, so closed walks count.  A set meets some source's ball
        of layer t exactly when it meets their union U_t, so one AND of
        the packed balls and the packed U_t tests every layer.  Since every
        stored ball holds its source, w is no source of v's layers, so no
        walk of length at most k-1 from w reaches v: w's balls are the
        same with the arc as without it, and the partial has no two walks
        from w that meet.  A w with no out-arc has ball {w} at every
        radius, and w is in no U_t, so it is kept with no scan: w in
        every field.  Any other w costs one scan of its balls, which
        packs them, and one AND.
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
        that fills the row first has _grow commit each layer's pending
        set and its own, the packed P_t ORed with ahead, to a copy of
        balls and to shut, which may cut; only
        a kept fill installs them and lands, so a cut changes nothing.
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

        news packs one n-bit set per layer, layer t's at bit t*n; fields
        past the last layer are not read.  Returns a new (balls, shut)
        pair, or None for a cut, and changes
        nothing.  Without duplicate walks a ball is full exactly when
        every vertex within k-1 steps of its source has its whole
        out-list, so it is then finished.  In full diregular mode each of
        its epsilon outliers, the set out, gains one in shut: field j
        takes out's part of field j-1, by one shift, AND and OR, and field
        0 all of out.  Field epsilon is then the vertices shut out of more
        than epsilon finished balls, and the first ball that makes it
        nonempty cuts at once.
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

        A frame is [v, w, live, barred, saved, frame, last]: the open
        vertex v, the candidate w whose arc is landed while its child is
        walked, the live and barred candidates not yet passed, the balls,
        shut, max_used and in_full it opened with, v's frame, and the
        bound below which an arc's child may be counted in this frame.
        Its w is -1 until it lands its first arc and is set at every
        landing after that, so whenever the walk comes back to a frame
        with w >= 0, that arc is landed and is taken back first.  The
        next open vertex is looked up from the vertex of the frame that
        just landed an arc, since every row below it is full.
        The candidates are the targets from v's next slot up to one past
        the highest vertex in use, without v and without the vertices in
        in_full, which is empty in out-regular mode; none of this moves
        while the frame is open, so one bitmask per frame holds them.
        Those in the frame's union U are barred, since an arc to one
        would give some source a second walk to it, and the rest are
        live; _check is called on live ones only.  A frame for the
        vertex whose row its parent left open is derived from the
        parent's frame and the packed sets _check returned: the packed
        U_t and P_t each gain them by one OR, cut to the fields of v's
        layers, and U gains field 0, the largest.  Any other
        frame is built by _frame from the stored balls, which the last
        filled row brought up to date.
        A frame with no live candidate is counted by one popcount
        and never pushed.  Live candidates are tested by _check in
        increasing order; the barred ones below each, and those left when
        the frame ends, are counted by one popcount.  A kept arc that
        leaves v's row open is not landed when its child would have no
        live candidate.  The child's candidates would be this frame's
        live and barred ones above w, and w + 1 as well when w is the
        newcomer, one past the highest vertex in use; of these, w + 1,
        which no ball holds, and the live ones outside w's ball of radius
        k-1 would be live.  So for a w below last the child is counted
        here by one popcount when no live one above w lies outside that
        ball.  last is the newcomer when it brings a w + 1 and n
        otherwise, and 0 when an arc fills the row or the walk splits, so
        that no task is dropped.  Every candidate is a node, barred, cut
        or landed, and so is every candidate of a child counted in its
        parent.  A cut arc, by _check or by _land, leaves the state as it
        was, so the only arc a frame takes back is the one it landed: it
        clears its two mask bits and puts back what it saved, and a walk
        that ends leaves the state as it found it.  The budget is tested once per landed
        arc, at the top of the loop: once the nodes pass it the walk
        returns there, with its arcs still landed, and run_task reports
        it stopped.
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
                    live = cands & ~union
                    if live:
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
    pending = [i for i in range(len(tasks)) if i not in restored]
    merged: dict[bytes, Digraph] = dict(stats["results"])
    nodes = stats["nodes"]
    left = None if params.max_nodes is None else params.max_nodes - nodes
    complete = exhausted = False
    # more workers than pending tasks or the cores this process may use would only sit idle
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(pending), cores)
    pool = None
    if workers > 1:
        import concurrent.futures  # only a pooled search pays for the import

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
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
