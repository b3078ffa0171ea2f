"""Canonical forms, isomorphism testing and automorphism orbits.

The labeling algorithm is ordinary iterated neighbourhood refinement down
to an equitable ordered partition, then backtracking over the vertices of
a target cell.  Every discrete leaf yields a relabeling; the canonical
form is the lexicographically smallest adjacency encoding over all
leaves.  Two leaves with equal encodings differ by an automorphism, so
the walk records one whenever a leaf ties with the first leaf or the
best so far (McKay, "Practical graph isomorphism", 1981).  It then skips
a child that the recorded automorphisms fixing the path's individualised
vertices map onto an explored sibling, and leaves at once a subtree that
a new automorphism maps onto an explored one.  A skipped subtree is the
image of one walked earlier, so it holds no smaller encoding and not the
first labeling that attains the minimum: the bytes and that labeling are
those of the full walk.  By McKay's first-path argument the recorded
automorphisms generate the whole group, which is where the orbit
partition comes from.  No randomisation and no hashing order is involved
anywhere, so the bytes are stable across runs and processes.
"""

from __future__ import annotations

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


def _refine(g: Digraph, cells: list[list[int]]) -> list[list[int]]:
    # split cells by (out-degree, in-degree, out-colour multiset, in-colour
    # multiset) until no cell splits; cell order is preserved, new cells are
    # ordered by signature
    n = g.n
    while True:
        colour = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                colour[v] = ci
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                osig = sorted(colour[w] for w in g.out[v])
                isig = sorted(colour[w] for w in g.in_lists[v])
                sig = (len(osig), len(isig), tuple(osig), tuple(isig))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(sorted(groups[sig]))
        if not changed:
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


def _code(g: Digraph, lab: list[int]) -> int:
    # adjacency of the relabeled digraph as n rows of n bits, new row 0
    # first; bit n-1-j of row i is set when new vertex i has an arc to j
    n = g.n
    rows = [0] * n
    for v in range(n):
        r = 0
        for w in g.out[v]:
            r |= 1 << (n - 1 - lab[w])
        rows[lab[v]] = r
    code = 0
    for r in rows:
        code = code << n | r
    return code


def _pack(n: int, code: int) -> bytes:
    nbytes = (n * n + 7) // 8
    return n.to_bytes(4, "big") + (code << nbytes * 8 - n * n).to_bytes(nbytes, "big")


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
    visits is stored under the form it found.
    """
    n = g.n
    path: list[int] = []
    auts: list[list[int]] = []
    leaves: list[int] = []
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
            hit = memo.get(_pack(n, code)) if memo is not None else None
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

    def walk(cells: list[list[int]]) -> int:
        # returns the depth of the node to go on at: this node's own depth
        # or more means its next child, less means unwind to that node
        cells = _refine(g, cells)
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
            back = walk(cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1:])
            path.pop()
            if back < depth:
                return back
        return depth

    walk([list(range(n))])
    if hit:
        return hit, None, []
    form = CanonicalForm(_pack(n, best[0]))
    if memo is not None:
        for code in leaves:
            memo[_pack(n, code)] = form
    return form, best[1], auts


def canonical_form(g: Digraph, memo: dict | None = None) -> CanonicalForm:
    """Canonical byte encoding of the isomorphism class of g.

    memo, if given, is a dict that this function fills and reads: it maps
    every leaf a call visits to the form found, and a later call whose
    first leaf is there returns that form after one root-to-leaf path.
    A leaf is the adjacency matrix of a relabeled copy, so a hit is exact.
    """
    if g.n < 1:
        raise ValueError("canonical form requires at least one vertex")
    return _best_labelings(g, memo)[0]


def canonical_relabelling(g: Digraph) -> list[int]:
    """One labeling (vertex -> new index) attaining the canonical form."""
    if g.n < 1:
        raise ValueError("canonical form requires at least one vertex")
    return list(_best_labelings(g)[1])


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
    vertex-transitive.
    """
    if g.n < 1:
        raise ValueError("orbit partition requires at least one vertex")
    n = g.n
    parent = list(range(n))
    for aut in _best_labelings(g)[2]:
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
