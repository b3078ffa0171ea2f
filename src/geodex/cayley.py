"""Brute-force hunt for geodetic Cayley digraphs over the alternating group A4.

A4 is small enough (12 elements, 66 unordered generator pairs) that the
whole space is enumerated directly.  Vertices are the even permutations
of 0..3 in lexicographic one-line order; the pair {s, t} induces arcs
x -> x*s and x -> x*t, composition applied right to left.  Order 12
equals moore_bound(2, 2) + 5, so 2-geodetic witnesses are degree-2
excess-5 digraphs, and being Cayley digraphs they are vertex-transitive
and therefore diregular.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .core import Digraph, SearchParams, is_k_geodetic

Perm = tuple[int, int, int, int]


def a4_elements() -> tuple[Perm, ...]:
    """The 12 even permutations of (0, 1, 2, 3), lexicographically sorted."""
    evens = []
    for p in permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inversions % 2 == 0:
            evens.append(p)
    return tuple(sorted(evens))


def _compose(p: Perm, q: Perm) -> Perm:
    # (p * q)(i) = p(q(i))
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def _generates_a4(s: Perm, t: Perm) -> bool:
    elements = set(a4_elements())
    closure = {s, t}
    frontier = [s, t]
    while frontier:
        x = frontier.pop()
        for y in (s, t):
            z = _compose(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure == elements


def cayley_digraph(generators: tuple[Perm, Perm]) -> Digraph:
    """Cayley digraph of A4 with arcs x -> x*s for each generator s."""
    elements = a4_elements()
    index = {p: i for i, p in enumerate(elements)}
    out = []
    for p in elements:
        out.append(sorted(index[_compose(p, s)] for s in generators))
    return Digraph(len(elements), out)


@dataclass(frozen=True)
class CayleyWitness:
    """A generating pair together with the digraph it induces."""

    generators: tuple[Perm, Perm]
    digraph: Digraph


def search_cayley_a4(k: int = 2, epsilon: int = 5) -> list[CayleyWitness]:
    """All 2-element generating sets of A4 whose Cayley digraph is k-geodetic
    with excess epsilon.

    Every candidate digraph has order 12, so the result is empty whenever
    12 != moore_bound(2, k) + epsilon; for k = 2 that forces epsilon = 5.
    """
    if SearchParams(d=2, k=k, epsilon=epsilon).order != 12:
        return []
    witnesses = []
    for s, t in combinations(a4_elements(), 2):
        if not _generates_a4(s, t):
            continue
        g = cayley_digraph((s, t))
        if is_k_geodetic(g, k):
            witnesses.append(CayleyWitness(generators=(s, t), digraph=g))
    return witnesses
