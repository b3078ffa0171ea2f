"""Core digraph type and the distance, geodecity and verification machinery.

Vertices are dense integers 0..n-1; any external naming is the catalog's
business.  A digraph is k-geodetic when no ordered pair of vertices is
joined by two distinct paths of length at most k.  The trivial length-0
path from a vertex to itself counts, so any closed walk of length 1..k is
a violation as well.  Walk counting over at most k steps is equivalent to
path counting under that convention, which is what the checker exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable

from .reach import geodetic_balls, layers, reach


def moore_bound(d: int, k: int) -> int:
    """Sum of d**i for i in 0..k, the Moore bound for out-degree d and depth k.

    Exact integer arithmetic in closed form, so one power at any size up
    to a cap: for d > 1 a bound that may have more than 2**24 bits, as
    estimated by (k + 1) * d.bit_length(), raises ValueError instead.
    """
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if k < 0:
        raise ValueError(f"depth must be non-negative, got {k}")
    if d > 1 and (k + 1) * d.bit_length() > 1 << 24:
        raise ValueError(f"depth {_order_text(k)} is too large for degree {_order_text(d)}: "
                         "the Moore bound may exceed 2**24 bits")
    return k + 1 if d == 1 else (d ** (k + 1) - 1) // (d - 1)


def _order_text(n: int) -> str:
    """n in decimal, or ~2**e once it has too many digits for str()."""
    try:
        return str(n)
    except ValueError:
        return f"~2**{n.bit_length() - 1}"


class Digraph:
    """Immutable digraph stored as sorted out-adjacency lists.

    Out-lists are normalised to strictly increasing tuples, so parallel
    arcs are rejected.  Self-loops are representable (they simply fail
    every geodecity check for k >= 1).  In-lists are precomputed because
    nearly every caller wants both directions.
    """

    __slots__ = ("n", "out", "in_lists")

    def __init__(self, n: int, out: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"order must be non-negative, got {n}")
        lists = [tuple(sorted(targets)) for targets in out]
        if len(lists) != n:
            raise ValueError(f"expected {n} out-lists, got {len(lists)}")
        incoming: list[list[int]] = [[] for _ in range(n)]
        for v, targets in enumerate(lists):
            prev = -1
            for w in targets:
                if not 0 <= w < n:
                    raise ValueError(f"vertex {v}: out-neighbour {w} out of range 0..{n - 1}")
                if w == prev:
                    raise ValueError(f"vertex {v}: parallel arc to {w}")
                prev = w
                incoming[w].append(v)
        self.n = n
        self.out = tuple(lists)
        self.in_lists = tuple(tuple(srcs) for srcs in incoming)

    @classmethod
    def _unchecked(cls, n: int, out: tuple[tuple[int, ...], ...],
                   in_lists: tuple[tuple[int, ...], ...]) -> Digraph:
        # the digraph with these rows and in-lists, taken as they are: nothing
        # is checked or copied, so the caller vouches that they are what
        # __init__ would build, strictly increasing tuples in range 0..n-1,
        # in_lists[w] holding exactly the v with w in out[v]
        g = cls.__new__(cls)
        g.n, g.out, g.in_lists = n, out, in_lists
        return g

    def arcs(self):
        for v, targets in enumerate(self.out):
            for w in targets:
                yield v, w

    def arc_count(self) -> int:
        return sum(len(targets) for targets in self.out)

    def out_degree(self, u: int) -> int:
        return len(self.out[u])

    def in_degree(self, u: int) -> int:
        return len(self.in_lists[u])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self) -> int:
        return hash((self.n, self.out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count()})"


def _check_vertex(g: Digraph, u: int) -> None:
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range 0..{g.n - 1}")


def _masks(lists: tuple[tuple[int, ...], ...]) -> list[int]:
    return [sum(1 << w for w in row) for row in lists]


def _members(mask: int, n: int) -> tuple[int, ...]:
    """The set bits of mask below bit n, lowest first."""
    mask &= (1 << n) - 1
    found = []
    while mask:
        low = mask & -mask
        mask ^= low
        found.append(low.bit_length() - 1)
    return tuple(found)


def distance_layer(g: Digraph, u: int, l: int) -> tuple[int, ...]:
    """Vertices at shortest-path distance exactly l from u, sorted.

    Layers beyond the reachable set are empty; there is no infinity
    sentinel anywhere in this module.
    """
    _check_vertex(g, u)
    if l < 0:
        raise ValueError(f"layer depth must be non-negative, got {l}")
    found = layers(_masks(g.out), u, l)
    return _members(found[l] if l < len(found) else 0, g.n)


def ball(g: Digraph, u: int, l: int) -> tuple[int, ...]:
    """All vertices within distance l of u, including u itself, sorted."""
    _check_vertex(g, u)
    if l < 0:
        raise ValueError(f"radius must be non-negative, got {l}")
    return _members(reach(_masks(g.out), u, l), g.n)


@dataclass(frozen=True)
class GeodeticViolation:
    """Witness for a geodecity failure: two distinct short paths source -> target.

    For a closed-walk violation the source equals the target and walk_a is
    the trivial length-0 path.
    """

    source: int
    target: int
    walk_a: tuple[int, ...]
    walk_b: tuple[int, ...]


def _first_two_walks(g: Digraph, in_masks: list[int], u: int, v: int, k: int) -> list[tuple[int, ...]]:
    # walks from u to v of length <= k in lexicographic order, (u,) first for u == v,
    # stepping only into near[steps left]: the vertices that still reach v in time
    near = list(accumulate(layers(in_masks, v, k), or_))
    found = [(u,)] if u == v else []
    stack = [(u, iter(g.out[u]))]
    while stack and len(found) < 2:
        left = k - len(stack)
        for w in stack[-1][1]:
            if near[min(left, len(near) - 1)] >> w & 1:
                stack.append((w, iter(g.out[w] if left else ())))
                if w == v:
                    found.append(tuple(x for x, _ in stack))
                break
        else:
            stack.pop()
    return found


def find_geodetic_violation(g: Digraph, k: int) -> GeodeticViolation | None:
    """First geodecity violation in (source, target) lexicographic order, or None.

    A violation is either a pair of distinct walks of length <= k between
    the same ordered pair, or a closed walk of length 1..k.  The witness is
    that pair's first two walks in lexicographic order.  The verdict scans at
    most 2n steps: a walk of n or more steps repeats a vertex, so a cycle lies
    within n-1 steps of the source and gives two walks of length < 2n.
    """
    if k < 1:
        raise ValueError(f"geodecity parameter must be at least 1, got {k}")
    masks = _masks(g.out)
    for u in range(g.n):
        # width 0 keeps the k-ball alone: the verdict is all this needs,
        # and fields of n bits over up to 2n radii would grow quadratically
        if not geodetic_balls(masks, u, min(k, 2 * g.n), 0):
            # 0: some target has two walks, so this branch returns, one
            # build per call
            in_masks = _masks(g.in_lists)
            for v in range(g.n):
                walks = _first_two_walks(g, in_masks, u, v, k)
                if len(walks) == 2:
                    return GeodeticViolation(u, v, *walks)
    return None


def is_k_geodetic(g: Digraph, k: int) -> bool:
    """True when every ordered pair is joined by at most one path of length <= k.

    Counts walks with multiplicity; at most one walk per pair and no closed
    walk of length 1..k is exactly the path condition.
    """
    return find_geodetic_violation(g, k) is None


def outlier_set(g: Digraph, u: int, k: int) -> tuple[int, ...]:
    """Vertices at distance at least k+1 from u (unreachable ones included)."""
    if k < 0:
        raise ValueError(f"depth must be non-negative, got {k}")
    _check_vertex(g, u)
    return _members(~reach(_masks(g.out), u, k), g.n)


def outlier_multiplicity(g: Digraph, k: int) -> tuple[int, ...]:
    """For each vertex, the number of vertices whose outlier set contains it."""
    if k < 0:
        raise ValueError(f"depth must be non-negative, got {k}")
    # w is an outlier of every vertex outside its backward k-ball
    in_masks = _masks(g.in_lists)
    return tuple(g.n - reach(in_masks, w, k).bit_count() for w in range(g.n))


def excess(g: Digraph, d: int, k: int) -> int:
    """Order of g minus the Moore bound for (d, k).  May be negative."""
    return g.n - moore_bound(d, k)


def is_diregular(g: Digraph, d: int) -> bool:
    """True when every vertex has out-degree and in-degree exactly d."""
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    return all(len(g.out[v]) == d and len(g.in_lists[v]) == d for v in range(g.n))


@dataclass(frozen=True)
class SearchParams:
    """Parameters shared by verification and search.

    epsilon is the excess over the Moore bound, so the target order is
    moore_bound(d, k) + epsilon.  max_results and max_nodes are optional
    search caps; verification ignores them.
    """

    d: int
    k: int
    epsilon: int
    diregular: bool = False
    max_results: int | None = None
    max_nodes: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"degree must be at least 1, got {self.d}")
        if self.k < 1:
            raise ValueError(f"geodecity parameter must be at least 1, got {self.k}")
        if self.epsilon < 0:
            raise ValueError(f"excess must be non-negative, got {self.epsilon}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be positive when given")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative when given")

    @property
    def order(self) -> int:
        return moore_bound(self.d, self.k) + self.epsilon


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a digraph against (d, k, epsilon) requirements.

    outlier_counts[w] is the number of vertices that have w in their
    outlier set; it is reported as data regardless of pass or fail.
    """

    params: SearchParams
    order: int
    expected_order: int
    order_ok: bool
    outdegree_ok: bool
    diregular_ok: bool
    geodetic_ok: bool
    geodetic_witness: GeodeticViolation | None
    outlier_counts: tuple[int, ...]

    @property
    def ok(self) -> bool:
        required = self.order_ok and self.outdegree_ok and self.geodetic_ok
        if self.params.diregular:
            required = required and self.diregular_ok
        return required


def verify(g: Digraph, params: SearchParams) -> VerificationReport:
    """Check order, degree, geodecity and report per-vertex outlier counts.

    Without the diregular flag the degree requirement is minimum out-degree
    at least d; with it, out-degree and in-degree must both equal d.
    """
    expected = params.order
    if params.diregular:
        outdegree_ok = all(len(targets) == params.d for targets in g.out)
    else:
        outdegree_ok = all(len(targets) >= params.d for targets in g.out)
    diregular_ok = is_diregular(g, params.d)
    witness = find_geodetic_violation(g, params.k)
    return VerificationReport(
        params=params,
        order=g.n,
        expected_order=expected,
        order_ok=g.n == expected,
        outdegree_ok=outdegree_ok,
        diregular_ok=diregular_ok,
        geodetic_ok=witness is None,
        geodetic_witness=witness,
        outlier_counts=outlier_multiplicity(g, params.k),
    )
