from itertools import combinations

import pytest

from geodex import (
    SearchParams,
    a4_elements,
    cayley_digraph,
    is_diregular,
    is_k_geodetic,
    search_cayley_a4,
    verify,
)
from geodex.cayley import _compose
from oracles import bfs_distances


def _generated(s, t):
    """The subgroup of A4 that s and t generate, closed under composition by hand."""
    group, frontier = {s, t}, [s, t]
    while frontier:
        x = frontier.pop()
        for z in (_compose(x, s), _compose(x, t)):
            if z not in group:
                group.add(z)
                frontier.append(z)
    return group


class TestA4Elements:
    def test_twelve_even_permutations(self):
        elems = a4_elements()
        assert len(elems) == 12
        assert elems[0] == (0, 1, 2, 3)
        assert elems == tuple(sorted(elems))

    def test_all_even(self):
        for p in a4_elements():
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if p[i] > p[j]
            )
            assert inversions % 2 == 0

    def test_closed_under_composition(self):
        elems = set(a4_elements())
        for p in elems:
            for q in elems:
                assert _compose(p, q) in elems


class TestCayleyDigraph:
    def test_shape(self):
        s, t = (1, 2, 0, 3), (0, 2, 3, 1)
        g = cayley_digraph((s, t))
        assert g.n == 12
        assert all(g.out_degree(v) == 2 for v in range(12))
        assert is_diregular(g, 2)

    def test_arcs_follow_right_multiplication(self):
        elems = a4_elements()
        s, t = (1, 2, 0, 3), (0, 2, 3, 1)
        g = cayley_digraph((s, t))
        idx = {p: i for i, p in enumerate(elems)}
        for i, p in enumerate(elems):
            assert set(g.out[i]) == {idx[_compose(p, s)], idx[_compose(p, t)]}


class TestSearch:
    def test_witnesses_found_for_excess_five(self):
        wits = search_cayley_a4(k=2, epsilon=5)
        assert len(wits) == 24

    def test_each_witness_verifies(self):
        params = SearchParams(d=2, k=2, epsilon=5)
        for w in search_cayley_a4(k=2, epsilon=5):
            g = w.digraph
            assert g.n == 12
            assert is_k_geodetic(g, 2)
            assert is_diregular(g, 2)
            assert verify(g, params).ok

    def test_witness_generators_generate(self):
        # every vertex is a product of generators: a walk from the identity, vertex 0
        for w in search_cayley_a4(k=2, epsilon=5):
            assert len(bfs_distances(w.digraph, 0)) == 12

    def test_keeps_exactly_the_generating_pairs(self):
        # at k = 1 only a loop breaks geodecity, so 55 pairs without the
        # identity pass it; only the generation filter cuts them to 48
        generating = [pair for pair in combinations(a4_elements(), 2)
                      if _generated(*pair) == set(a4_elements())]
        assert len(generating) == 48
        assert [w.generators for w in search_cayley_a4(k=1, epsilon=9)] == generating

    def test_generators_are_unordered_pairs(self):
        seen = {frozenset(w.generators) for w in search_cayley_a4(k=2, epsilon=5)}
        assert len(seen) == 24

    def test_mismatched_order_yields_nothing(self):
        # M(2,3)+5 = 20 is not the order of A4
        assert search_cayley_a4(k=3, epsilon=5) == []
        assert search_cayley_a4(k=2, epsilon=4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            search_cayley_a4(k=0, epsilon=5)
        with pytest.raises(ValueError):
            search_cayley_a4(k=2, epsilon=-1)
