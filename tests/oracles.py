"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: path enumeration with explicit
visited sets, isomorphism by trying all permutations, triangle scans over
all triples, and generate-everything-and-filter enumeration.  Slow, but
independent of the code under test.
"""

import itertools

from geodex import Digraph, canonical_form, is_diregular, is_k_geodetic


def count_paths(g: Digraph, u: int, v: int, k: int) -> int:
    """Number of directed paths of length 1..k from u to v (no repeated vertices)."""
    total = 0
    stack = [(u, 0, {u})]
    while stack:
        node, length, seen = stack.pop()
        if length == k:
            continue
        for w in g.out[node]:
            if w == v:
                total += 1
            if w not in seen and w != v:
                stack.append((w, length + 1, seen | {w}))
    return total


def has_short_cycle(g: Digraph, k: int) -> bool:
    """True if some closed walk of length 1..k exists."""
    for u in range(g.n):
        frontier = {u}
        for _ in range(k):
            frontier = {w for x in frontier for w in g.out[x]}
            if u in frontier:
                return True
    return False


def geodetic_oracle(g: Digraph, k: int) -> bool:
    """Definitional check: no <=k cycle, and at most one <=k path per ordered pair."""
    if has_short_cycle(g, k):
        return False
    for u in range(g.n):
        for v in range(g.n):
            if u != v and count_paths(g, u, v, k) > 1:
                return False
    return True


def bfs_distances(g: Digraph, u: int) -> dict[int, int]:
    """Shortest-path distance from u to every vertex it reaches, by plain BFS."""
    dist = {u: 0}
    queue = [u]
    for x in queue:
        for w in g.out[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def walks_from(g: Digraph, u: int, k: int) -> list[tuple[int, ...]]:
    """Every walk of length 0..k from u, as vertex tuples."""
    walks = [(u,)]
    layer = [(u,)]
    for _ in range(k):
        layer = [walk + (w,) for walk in layer for w in g.out[walk[-1]]]
        walks += layer
    return walks


def partial_cut_oracle(g: Digraph, d: int, k: int, epsilon: int, diregular: bool,
                       full: bool) -> bool:
    """Whether the search cuts the partial g; True means cut.

    It cuts when some source has two walks of length 0..k with one end
    (a closed walk ends at the source's trivial walk), when an in-degree
    exceeds d in diregular mode, and, with full cuts in diregular mode,
    when a vertex lies outside more than epsilon finished balls.  A ball
    is finished when every vertex within k-1 steps has d out-neighbours.
    """
    for u in range(g.n):
        ends = [walk[-1] for walk in walks_from(g, u, k)]
        if len(set(ends)) < len(ends):
            return True
    if not diregular:
        return False
    if any(len(g.in_lists[w]) > d for w in range(g.n)):
        return True
    if not full:
        return False
    outside = [0] * g.n
    for u in range(g.n):
        dist = bfs_distances(g, u)
        if all(len(g.out[x]) == d for x, t in dist.items() if t < k):
            for x in range(g.n):
                outside[x] += dist.get(x, k + 1) > k
    return any(c > epsilon for c in outside)


def first_violation_oracle(g: Digraph, k: int) -> tuple[int, int] | None:
    """Lexicographically first (source, target) joined by two walks of length 0..k."""
    for u in range(g.n):
        ends = [walk[-1] for walk in walks_from(g, u, k)]
        for v in range(g.n):
            if ends.count(v) >= 2:
                return u, v
    return None


def iso_oracle(g: Digraph, h: Digraph) -> bool:
    """Isomorphism by brute force over all vertex bijections."""
    if g.n != h.n or g.arc_count() != h.arc_count():
        return False
    h_arcs = frozenset(h.arcs())
    for p in itertools.permutations(range(g.n)):
        if all((p[u], p[w]) in h_arcs for u in range(g.n) for w in g.out[u]):
            return True
    return False


def automorphisms_oracle(g: Digraph) -> list[tuple[int, ...]]:
    """All arc-preserving permutations, by exhaustive scan."""
    arcs = frozenset(g.arcs())
    found = []
    for p in itertools.permutations(range(g.n)):
        if all((p[u], p[w]) in arcs for (u, w) in arcs):
            found.append(p)
    return found


def _tree_refine(g: Digraph, cells: list[list[int]]) -> list[list[int]]:
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


def _tree_target_cell(cells: list[list[int]]) -> int | None:
    # lowest-indexed largest non-singleton cell
    best = None
    best_size = 1
    for ci, cell in enumerate(cells):
        if len(cell) > best_size:
            best = ci
            best_size = len(cell)
    return best


def _tree_rows_for(g: Digraph, lab: list[int]) -> tuple[int, ...]:
    # adjacency of the relabeled digraph, one integer per new row, bit
    # n-1-j set when new vertex i has an arc to new vertex j
    n = g.n
    rows = [0] * n
    for v in range(n):
        r = 0
        for w in g.out[v]:
            r |= 1 << (n - 1 - lab[w])
        rows[lab[v]] = r
    return tuple(rows)


def canon_tree_oracle(g: Digraph) -> tuple[tuple[int, ...], list[list[int]]]:
    """Minimal adjacency rows over all discrete refinements, with every
    labeling that attains them.

    The canonical walk as it was before automorphism pruning: it visits
    every leaf of the individualisation tree, so it is factorial on
    symmetric digraphs.  Pack the rows for the form bytes; the first
    labeling is the canonical relabelling, and the tied labelings differ
    from it by exactly the automorphisms.
    """
    n = g.n
    best_rows: tuple[int, ...] | None = None
    best_labs: list[list[int]] = []

    def walk(cells: list[list[int]]) -> None:
        nonlocal best_rows, best_labs
        cells = _tree_refine(g, cells)
        target = _tree_target_cell(cells)
        if target is None:
            lab = [0] * n
            for pos, cell in enumerate(cells):
                lab[cell[0]] = pos
            rows = _tree_rows_for(g, lab)
            if best_rows is None or rows < best_rows:
                best_rows = rows
                best_labs = [lab]
            elif rows == best_rows:
                best_labs.append(lab)
            return
        cell = cells[target]
        for v in cell:
            child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1 :]
            walk(child)

    if n == 0:
        return (), [[]]
    walk([list(range(n))])
    assert best_rows is not None
    return best_rows, best_labs


def twin_pairs_oracle(g: Digraph) -> list[tuple[int, int]]:
    """All pairs u < v with identical out-neighbour sets, by direct comparison."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if set(g.out[u]) == set(g.out[v])
    ]


def triangles_oracle(g: Digraph) -> tuple[tuple[int, int, int], ...]:
    """All directed 3-cycles, each rotated to start at its smallest vertex."""
    seen = set()
    for a in range(g.n):
        for b in g.out[a]:
            for c in g.out[b]:
                if a in g.out[c] and len({a, b, c}) == 3:
                    trip = (a, b, c)
                    m = trip.index(min(trip))
                    seen.add(trip[m:] + trip[:m])
    return tuple(sorted(seen))


def all_out_lists(n: int, d: int):
    """Every assignment of a d-element loop-free out-list to each vertex."""
    per_vertex = [
        [c for c in itertools.combinations(range(n), d) if v not in c]
        for v in range(n)
    ]
    return itertools.product(*per_vertex)


def naive_diregular_search(d: int, k: int, n: int) -> dict:
    """Generate-all-and-filter enumeration; returns canonical form -> digraph."""
    found = {}
    for outs in all_out_lists(n, d):
        g = Digraph(n, outs)
        if is_diregular(g, d) and is_k_geodetic(g, k):
            found.setdefault(canonical_form(g), g)
    return found


def all_loopless_digraphs(n: int):
    """Every digraph on n vertices with no self-loops."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        out = [[] for _ in range(n)]
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                out[u].append(v)
        yield Digraph(n, out)


def random_digraph(rng, n: int, loops: bool = False) -> Digraph:
    """Random digraph with arc probability drawn per digraph."""
    p = rng.uniform(0.1, 0.6)
    out = []
    for v in range(n):
        row = [w for w in range(n) if (loops or w != v) and rng.random() < p]
        out.append(row)
    return Digraph(n, out)


def random_out_regular(rng, n: int, d: int) -> Digraph:
    """Random digraph where every vertex has exactly d loop-free out-neighbours."""
    out = []
    for v in range(n):
        others = [w for w in range(n) if w != v]
        out.append(rng.sample(others, d))
    return Digraph(n, out)


def shuffled(rng, g: Digraph) -> Digraph:
    """A uniformly random relabelling of g."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    out = [()] * g.n
    for v in range(g.n):
        out[perm[v]] = tuple(perm[w] for w in g.out[v])
    return Digraph(g.n, out)


def first_path_levels(g: Digraph) -> int:
    """Nodes on the first root-to-leaf path of the unpruned walk, leaf included."""
    cells = [list(range(g.n))]
    levels = 0
    while True:
        cells = _tree_refine(g, cells)
        levels += 1
        target = _tree_target_cell(cells)
        if target is None:
            return levels
        cell = cells[target]
        cells = cells[:target] + [[cell[0]], cell[1:]] + cells[target + 1 :]
