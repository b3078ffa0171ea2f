import pytest
from hypothesis import given, settings

from geodex import (
    Digraph,
    check_lemma_identical_neighbourhoods,
    check_lemma_pair_exists,
    classify_pair,
    common_out_pairs,
    outlier_multiplicity,
    outlier_set,
    triangle_census,
)
from oracles import triangles_oracle
from strategies import digraphs

THREE_CYCLE = Digraph(3, [(1,), (2,), (0,)])


class TestCommonOutPairs:
    def test_catalog_a_single_common(self, cat_a):
        pairs = [(p.u, p.v) for p in common_out_pairs(cat_a, 1)]
        assert pairs == [(0, 5), (0, 7), (1, 6), (1, 7), (2, 4),
                         (2, 8), (3, 5), (3, 6), (4, 8)]

    def test_catalog_b_single_common(self, cat_b):
        pairs = [(p.u, p.v) for p in common_out_pairs(cat_b, 1)]
        assert pairs == [(0, 3), (0, 6), (3, 6)]

    def test_catalog_a_has_no_twins(self, cat_a):
        assert common_out_pairs(cat_a, 2) == []

    def test_catalog_b_twins(self, cat_b):
        pairs = [(p.u, p.v) for p in common_out_pairs(cat_b, 2)]
        assert pairs == [(1, 8), (2, 4), (5, 7)]

    def test_three_cycle_disjoint_neighbourhoods(self):
        assert common_out_pairs(THREE_CYCLE, 1) == []

    def test_rejects_negative_count(self, cat_b):
        with pytest.raises(ValueError, match="^common-neighbour count must be non-negative, got -1$"):
            common_out_pairs(cat_b, -1)

    def test_counts_recorded(self, cat_b):
        for p in common_out_pairs(cat_b, 2):
            assert p.common_out == 2
            assert p.bad is None


class TestClassifyPair:
    def test_catalog_a_bad_pairs(self, cat_a):
        bad = [
            (p.u, p.v)
            for p in common_out_pairs(cat_a, 1)
            if classify_pair(cat_a, p.u, p.v, 2).bad
        ]
        assert bad == [(0, 7), (1, 6), (3, 5)]

    def test_catalog_a_named_pair_is_bad(self, cat_a):
        assert classify_pair(cat_a, 0, 7, 2).bad is True

    def test_catalog_b_has_no_bad_pairs(self, cat_b):
        for p in common_out_pairs(cat_b, 1):
            assert classify_pair(cat_b, p.u, p.v, 2).bad is False

    def test_catalog_b_named_pair_is_good(self, cat_b):
        assert classify_pair(cat_b, 0, 3, 2).bad is False

    def test_symmetric_in_u_and_v(self, cat_a):
        for p in common_out_pairs(cat_a, 1):
            assert (
                classify_pair(cat_a, p.u, p.v, 2).bad
                == classify_pair(cat_a, p.v, p.u, 2).bad
            )

    def test_bad_pairs_form_one_orbit(self, cat_a):
        # images of (0,7) under the order-3 automorphism are (1,6), (3,5)
        assert classify_pair(cat_a, 1, 6, 2).bad
        assert classify_pair(cat_a, 3, 5, 2).bad

    def test_rejects_two_common(self, cat_b):
        with pytest.raises(ValueError, match="common"):
            classify_pair(cat_b, 2, 4, 2)

    def test_rejects_wrong_k(self, cat_a):
        with pytest.raises(ValueError, match="k"):
            classify_pair(cat_a, 0, 7, 3)

    @pytest.mark.parametrize("u, v, bad", [(9, 3, 9), (3, 9, 9), (-1, 3, -1), (3, -1, -1)])
    def test_rejects_a_vertex_out_of_range(self, cat_a, u, v, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.8$"):
            classify_pair(cat_a, u, v, 2)

    def test_rejects_same_vertex(self, cat_a):
        with pytest.raises(ValueError):
            classify_pair(cat_a, 0, 0, 2)

    def test_rejects_invalid_host(self):
        with pytest.raises(ValueError):
            classify_pair(THREE_CYCLE, 0, 1, 2)


class TestTriangleCensus:
    def test_catalog_a(self, cat_a):
        c = triangle_census(cat_a)
        assert c.triangles == ((0, 1, 3), (0, 2, 6), (1, 4, 5), (3, 8, 7))
        assert c.per_vertex == (2, 2, 1, 2, 1, 1, 1, 1, 1)

    def test_catalog_b(self, cat_b):
        c = triangle_census(cat_b)
        assert c.triangles == ((0, 2, 5), (1, 4, 6), (3, 7, 8), (4, 5, 8))
        assert c.per_vertex == (1, 1, 1, 1, 2, 2, 1, 1, 2)

    def test_exactly_three_twice_covered(self, cat_a, cat_b):
        for g, expected in ((cat_a, {0, 1, 3}), (cat_b, {4, 5, 8})):
            per = triangle_census(g).per_vertex
            assert {v for v in range(9) if per[v] == 2} == expected

    def test_three_cycle(self):
        c = triangle_census(THREE_CYCLE)
        assert c.triangles == ((0, 1, 2),)
        assert c.per_vertex == (1, 1, 1)

    def test_per_vertex_sums_to_three_per_triangle(self, cat_a):
        c = triangle_census(cat_a)
        assert sum(c.per_vertex) == 3 * len(c.triangles)

    def test_triangles_are_directed_cycles(self, cat_a, cat_b):
        for g in (cat_a, cat_b):
            for (a, b, c) in triangle_census(g).triangles:
                assert b in g.out[a] and c in g.out[b] and a in g.out[c]

    @given(digraphs(max_n=7))
    @settings(max_examples=150)
    def test_matches_triple_scan_oracle(self, g):
        assert triangle_census(g).triangles == triangles_oracle(g)


class TestIdenticalNeighbourhoodLemma:
    def test_catalog_b_holds(self, cat_b):
        r = check_lemma_identical_neighbourhoods(cat_b, 2)
        assert r.applicable
        assert r.holds
        assert r.violations == ()
        assert r.pairs == ((1, 8), (2, 4), (5, 7))

    def test_catalog_a_vacuous(self, cat_a):
        r = check_lemma_identical_neighbourhoods(cat_a, 2)
        assert r.applicable
        assert r.holds
        assert r.pairs == ()

    def test_shared_neighbours_mutually_outlying(self, cat_b):
        # for twins (2,4) with shared out-list {5,6}: 5 and 6 outliers of each other
        assert 6 in outlier_set(cat_b, 5, 2)
        assert 5 in outlier_set(cat_b, 6, 2)

    def test_not_applicable_on_moore_digraph(self):
        r = check_lemma_identical_neighbourhoods(THREE_CYCLE, 2)
        assert not r.applicable
        assert r.reason

    def test_not_applicable_for_k_below_two(self, cat_b):
        r = check_lemma_identical_neighbourhoods(cat_b, 1)
        assert not r.applicable


class TestPairExistsLemma:
    def test_catalog_a(self, cat_a):
        r = check_lemma_pair_exists(cat_a)
        assert r.applicable and r.holds
        assert len(r.pairs) == 9

    def test_catalog_b(self, cat_b):
        r = check_lemma_pair_exists(cat_b)
        assert r.applicable and r.holds
        assert len(r.pairs) == 3

    def test_not_applicable_on_three_cycle(self):
        r = check_lemma_pair_exists(THREE_CYCLE)
        assert not r.applicable
        assert r.reason

    def test_not_applicable_at_order_9_off_spec(self):
        # the order is moore_bound(2, 2) + 2, but a 9-cycle has out-degree 1
        r = check_lemma_pair_exists(Digraph(9, [((v + 1) % 9,) for v in range(9)]))
        assert (r.applicable, r.holds) == (False, None)
        assert r.reason == "not a diregular (2,2,+2)-digraph"


class TestOutlierMultiplicity:
    def test_catalogs_all_two(self, cat_a, cat_b):
        assert outlier_multiplicity(cat_a, 2) == (2,) * 9
        assert outlier_multiplicity(cat_b, 2) == (2,) * 9

    def test_moore_digraph_all_zero(self):
        assert outlier_multiplicity(THREE_CYCLE, 2) == (0, 0, 0)

    def test_sums_match_outlier_sizes(self, cat_a):
        total = sum(len(outlier_set(cat_a, u, 2)) for u in range(9))
        assert sum(outlier_multiplicity(cat_a, 2)) == total == 9 * 2
