"""Canonical forms, isomorphism testing and automorphism orbits.

The labeling algorithm is iterated neighbourhood refinement down to an
equitable ordered partition, then backtracking over the vertices of a
target cell.  Each round of refinement splits every cell at once by the
vertices' degrees and the multisets of cells their out- and
in-neighbours lie in, and orders the pieces by those multisets as sorted
tuples.  A multiset is packed into one int instead, one count per cell
in a field wide enough for the largest cell's size, the first cell
highest, and negated: no count exceeds its cell's size, so among
multisets of one size the smaller tuple is the larger packed int, and
the pieces and their order are those of the tuples.  After the first
round only the cells that the last round split get a field; the others
add the same count to every vertex of a cell.  Two first rounds sign
less.  On a single cell every count is a degree, so the round signs by
out- and in-degree alone, and a degree-regular digraph, such as every
diregular leaf of a search, gets its cell back unsigned, equitable at
once.  When the walk splits a vertex v off in front of its cell, the
partition it splits is equitable: a vertex's count in the cell's rest is
its old count less its count in [v], and [v]'s field lies above the
rest's, so only cells that hold a neighbour of v can split, by whether a
vertex has an arc to v and an arc from v, and in that order.  Both
rounds give the pieces of the full round in its order, so no byte moves.
A splitter queue (McKay & Piperno, "Practical graph isomorphism, II",
2014) would reach the same equitable partition with its cells in another
order, so it would change every form's bytes.

Every discrete leaf yields a relabeling; the canonical form is the
lexicographically smallest adjacency encoding over all leaves.  Two
leaves with equal encodings differ by an automorphism, so the walk
records one whenever a leaf ties with the first leaf or the best so far
(McKay, "Practical graph isomorphism", 1981).  It then skips a child
that the recorded automorphisms fixing the path's individualised
vertices map onto an explored sibling, and leaves at once a subtree that
a new automorphism maps onto an explored one.  A skipped subtree is the
image of one walked earlier, so it holds no smaller encoding and not the
first labeling that attains the minimum: the bytes and that labeling are
those of the full walk.  By McKay's first-path argument the recorded
automorphisms generate the whole group, which is where the orbit
partition comes from.  No randomisation and no hashing order is involved
anywhere, so the bytes are stable across runs and processes.

The calls without a memo (canonical_form, canonical_relabelling and
automorphism_orbits) keep the last walk they made in
functools.lru_cache(maxsize=1), for g and any equal digraph, so the form
and then the orbits of one digraph cost one walk.  A call with a memo,
as every search leaf makes, walks as before and leaves the kept walk
alone.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

from .core import Digraph


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Relabeling-invariant encoding; equal bytes if and only if isomorphic.

    Layout: the order as 4 big-endian bytes, then the row-major adjacency
    bitmatrix of the canonically relabeled digraph packed most significant
    bit first.
    """

    data: bytes

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True)
class OrbitPartition:
    """Automorphism orbits, numbered 0.. in order of first appearance."""

    orbit_id: tuple[int, ...]
    orbit_count: int


def _refine(g: Digraph, cells: list[list[int]], v: int | None = None
            ) -> list[list[int]]:
    # split cells by (out-degree, in-degree, out-colour multiset, in-colour
    # multiset) until no cell splits; cell order is preserved, new cells are
    # ordered by signature.  A multiset is packed into one int, the count of
    # colour ci in a field of width bits, colour 0 in the highest field: no
    # count exceeds its cell's size < 2**width, so among multisets of one
    # size the sorted tuple is smaller exactly when the packed int is
    # larger, and the signature (out-degree, in-degree, -packed out,
    # -packed in) sorts as the tuples did.  After the first round only the
    # cells that the last round split get a field: within a cell every
    # vertex has the same degrees and the same count in each cell that did
    # not split, so leaving those counts out moves no signature against
    # another.
    # Two first rounds sign less and split the same.  On one cell every
    # count is a degree, so (out-degree, in-degree, -out-degree, -in-degree)
    # sorts as the degrees alone, and a degree-regular digraph, whose out-
    # and in-degrees are then one number, as both sum to the arc count,
    # returns its cell unsigned.  When v was just split off in front of the
    # rest of its cell in a partition that this function returned, a vertex
    # had the same count in every cell as the others of its cell, and its
    # count in the rest is that count less its count in [v]; so [v]'s field,
    # above the rest's, is the first that can differ, only a cell that holds
    # an in- or out-neighbour of v can split, and its pieces come in the
    # order of (arc to v, arc from v), descending.  first[u] is u's key in
    # that round; a vertex without one has no arc to or from v
    n = g.n
    out, into = g.out, g.in_lists
    if v is None and len(cells) == 1 and len({*map(len, out), *map(len, into)}) == 1:
        return cells
    fresh = cells
    if v is not None or len(cells) == 1:
        if v is None:
            first = dict(enumerate(zip(map(len, out), map(len, into))))
        else:
            to_v, from_v = set(into[v]), set(out[v])
            first = {u: (u not in to_v, u not in from_v) for u in to_v | from_v}
        new_cells: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) > 1 and not first.keys().isdisjoint(cell):
                groups: dict[tuple, list[int]] = {}
                for u in cell:
                    groups.setdefault(first.get(u, (True, True)), []).append(u)
                if len(groups) > 1:
                    for sig in sorted(groups):
                        fresh.append(sorted(groups[sig]))
                        new_cells.append(fresh[-1])
                    continue
            new_cells.append(cell)
        if not fresh:
            return new_cells
        cells = new_cells
    while True:
        top = len(fresh) - 1
        width = max(map(len, fresh)).bit_length()
        weight = [0] * n
        for rank, cell in enumerate(fresh):
            w = 1 << (top - rank) * width
            for u in cell:
                weight[u] = w
        wt = weight.__getitem__
        new_cells = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for u in cell:
                ou, iu = out[u], into[u]
                sig = (len(ou), len(iu), -sum(map(wt, ou)), -sum(map(wt, iu)))
                groups.setdefault(sig, []).append(u)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for sig in sorted(groups):
                    fresh.append(sorted(groups[sig]))
                    new_cells.append(fresh[-1])
        if not fresh:
            return new_cells
        cells = new_cells


def _target_cell(cells: list[list[int]]) -> int | None:
    # lowest-indexed largest non-singleton cell
    best = None
    best_size = 1
    for ci, cell in enumerate(cells):
        if len(cell) > best_size:
            best = ci
            best_size = len(cell)
    return best


def _code(g: Digraph, lab: list[int]) -> bytes:
    # the form's bytes of the relabeled digraph: the order as 4 big-endian
    # bytes, then the row-major adjacency bits most significant first, so
    # bit 32 + i*n + j is set when new vertex i has an arc to new vertex j;
    # the padding bits at the end stay 0
    n = g.n
    data = bytearray(4 + (n * n + 7) // 8)
    data[:4] = n.to_bytes(4, "big")
    for v, targets in enumerate(g.out):
        row = 32 + lab[v] * n
        for w in targets:
            bit = row + lab[w]
            data[bit >> 3] |= 128 >> (bit & 7)
    return bytes(data)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], perm: list[int]) -> None:
    for v, w in enumerate(perm):
        a, b = _find(parent, v), _find(parent, w)
        if a != b:
            parent[a] = b


def _best_labelings(g: Digraph, memo: dict | None = None
                    ) -> tuple[CanonicalForm, list[int] | None, list[list[int]]]:
    """The canonical form, the first labeling in walk order that attains
    it, and the automorphisms found, which generate the whole group.

    A memo maps the bytes of leaves (relabeled copies of the digraphs it
    has seen) to their forms.  When the first leaf is there the walk
    stops and returns (that form, None, []); otherwise every leaf it
    visits is stored under the form it found.  The walk recurses once
    per individualised vertex, so a digraph whose walk goes deeper than
    Python's recursion limit, such as an edgeless one of order 1,100,
    raises ValueError, and so does one of order 0, which has no leaf.
    """
    n = g.n
    if n < 1:
        raise ValueError("canonical form requires at least one vertex")
    path: list[int] = []
    auts: list[list[int]] = []
    leaves: list[bytes] = []
    first = best = None  # (code, labeling, path) of the first and the best leaf
    hit = None

    def leaf(cells: list[list[int]]) -> int:
        nonlocal first, best, hit
        lab = [0] * n
        for pos, cell in enumerate(cells):
            lab[cell[0]] = pos
        code = _code(g, lab)
        leaves.append(code)
        if first is None:
            first = best = code, lab, tuple(path)
            hit = memo.get(code) if memo is not None else None
            return -1 if hit else len(path)
        for code0, lab0, path0 in (first, best):
            if code == code0:
                # the vertex at each position of lab0 goes to the one at the
                # same position of lab; the subtree where the two paths part
                # is the image of the one that holds lab0, so leave it
                inv = [0] * n
                for v, pos in enumerate(lab):
                    inv[pos] = v
                auts.append([inv[pos] for pos in lab0])
                depth = 0
                while path[depth] == path0[depth]:
                    depth += 1
                return depth
        if code < best[0]:
            best = code, lab, tuple(path)
        return len(path)

    def walk(cells: list[list[int]], v: int | None = None) -> int:
        # returns the depth of the node to go on at: this node's own depth
        # or more means its next child, less means unwind to that node
        cells = _refine(g, cells, v)
        target = _target_cell(cells)
        if target is None:
            return leaf(cells)
        depth = len(path)
        cell = cells[target]
        parent = list(range(n))
        used = 0
        explored: list[int] = []
        for v in cell:
            if explored:
                for aut in auts[used:]:
                    if all(aut[u] == u for u in path):
                        _union(parent, aut)
                used = len(auts)
                root = _find(parent, v)
                if any(_find(parent, u) == root for u in explored):
                    continue
            explored.append(v)
            path.append(v)
            back = walk(cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1:], v)
            path.pop()
            if back < depth:
                return back
        return depth

    try:
        walk([list(range(n))])
    except RecursionError:
        raise ValueError(f"canonical labelling of order {n} needs a deeper walk than "
                         f"Python's recursion limit of {sys.getrecursionlimit()} allows") from None
    finally:
        # walk reaches itself through its closure cell; emptying the cell lets
        # reference counting free the call, with nothing left for the cyclic GC
        del walk
    if hit:
        return hit, None, []
    form = CanonicalForm(best[0])
    if memo is not None:
        for code in leaves:
            memo[code] = form
    return form, best[1], auts


@functools.lru_cache(maxsize=1)
def _walked(g: Digraph) -> tuple[CanonicalForm, list[int], list[list[int]]]:
    """_best_labelings(g) without a memo, walked once per run of calls on g
    or an equal digraph."""
    return _best_labelings(g)


def canonical_form(g: Digraph, memo: dict | None = None) -> CanonicalForm:
    """Canonical byte encoding of the isomorphism class of g.

    memo, if given, is a dict that this function fills and reads: it maps
    every leaf a call visits to the form found, and a later call whose
    first leaf is there returns that form after one root-to-leaf path.
    A leaf is the adjacency matrix of a relabeled copy, so a hit is exact.
    A call with a memo neither reads nor keeps the last walk that
    automorphism_orbits and canonical_relabelling share.
    """
    if memo is not None:
        return _best_labelings(g, memo)[0]
    return _walked(g)[0]


def canonical_relabelling(g: Digraph) -> list[int]:
    """One labeling (vertex -> new index) attaining the canonical form.

    Asked right after canonical_form or automorphism_orbits on g or an
    equal digraph, it reuses that call's walk; the list is a fresh copy
    each time.
    """
    return list(_walked(g)[1])


def are_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Canonical-form equality; digraphs of different order are never isomorphic."""
    if g.n != h.n:
        return False
    if g.n == 0:
        return True
    return canonical_form(g) == canonical_form(h)


def automorphism_orbits(g: Digraph) -> OrbitPartition:
    """Orbit partition of the vertices under the full automorphism group.

    The automorphisms the canonical walk finds generate the group, so
    union-find over them yields the exact orbits; orbit_count == 1 means
    vertex-transitive.  Asked right after canonical_form (without a memo)
    or canonical_relabelling on g or an equal digraph, it takes that
    call's walk instead of walking again.
    """
    if g.n < 1:
        raise ValueError("orbit partition requires at least one vertex")
    n = g.n
    parent = list(range(n))
    for aut in _walked(g)[2]:
        _union(parent, aut)
    ids = [-1] * n
    count = 0
    for v in range(n):
        root = _find(parent, v)
        if ids[root] == -1:
            ids[root] = count
            count += 1
        ids[v] = ids[root]
    return OrbitPartition(orbit_id=tuple(ids), orbit_count=count)
