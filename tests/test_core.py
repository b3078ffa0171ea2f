import pytest
from hypothesis import given, settings, strategies as st

from geodex import (
    Digraph,
    SearchParams,
    ball,
    distance_layer,
    excess,
    find_geodetic_violation,
    is_diregular,
    is_k_geodetic,
    moore_bound,
    outlier_multiplicity,
    outlier_set,
    verify,
)
from geodex.reach import geodetic_ball, geodetic_balls
from oracles import bfs_distances, first_violation_oracle, geodetic_oracle, walks_from
from strategies import digraphs

THREE_CYCLE = Digraph(3, [(1,), (2,), (0,)])
K3 = Digraph(3, [(1, 2), (0, 2), (0, 1)])


class TestMooreBound:
    def test_known_values(self):
        assert moore_bound(2, 2) == 7
        assert moore_bound(2, 3) == 15
        assert moore_bound(1, 5) == 6
        assert moore_bound(3, 2) == 13

    def test_depth_zero(self):
        assert moore_bound(2, 0) == 1
        assert moore_bound(9, 0) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            moore_bound(0, 2)
        with pytest.raises(ValueError):
            moore_bound(2, -1)

    @given(st.integers(1, 5), st.integers(1, 6))
    def test_recurrence(self, d, k):
        assert moore_bound(d, k) == d * moore_bound(d, k - 1) + 1

    def test_closed_form_equals_the_sum(self):
        for d in range(1, 7):
            for k in range(41):
                assert moore_bound(d, k) == sum(d ** i for i in range(k + 1))


class TestDigraph:
    def test_normalizes_out_lists(self):
        g = Digraph(3, [[2, 1], (0,), []])
        assert g.out == ((1, 2), (0,), ())

    def test_rejects_parallel_arcs(self):
        with pytest.raises(ValueError):
            Digraph(3, [(1, 1), (2,), ()])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(3, [(3,), (), ()])
        with pytest.raises(ValueError):
            Digraph(3, [(-1,), (), ()])

    def test_self_loop_representable(self):
        g = Digraph(2, [(0, 1), ()])
        assert g.out[0] == (0, 1)
        assert not is_k_geodetic(g, 1)

    def test_in_lists(self, cat_a):
        assert cat_a.in_lists[0] == (3, 6)
        assert cat_a.in_lists[4] == (1, 6)

    def test_arcs_and_count(self):
        assert sorted(THREE_CYCLE.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert K3.arc_count() == 6

    def test_degrees(self, cat_b):
        assert cat_b.out_degree(3) == 2
        assert cat_b.in_degree(8) == 2

    def test_equality_and_hash(self):
        assert Digraph(3, [(1,), (2,), (0,)]) == THREE_CYCLE
        assert hash(Digraph(3, [(1,), (2,), (0,)])) == hash(THREE_CYCLE)
        assert THREE_CYCLE != K3


class TestDistanceLayers:
    def test_catalog_a_layer_two(self, cat_a):
        assert distance_layer(cat_a, 0, 2) == (3, 4, 5, 6)

    def test_layer_zero(self, cat_a):
        assert distance_layer(cat_a, 5, 0) == (5,)

    def test_three_cycle(self):
        assert distance_layer(THREE_CYCLE, 0, 2) == (2,)
        assert distance_layer(THREE_CYCLE, 0, 7) == ()

    def test_ball_values(self, cat_a, cat_b):
        assert ball(cat_a, 0, 2) == (0, 1, 2, 3, 4, 5, 6)
        assert ball(cat_b, 3, 2) == (0, 2, 3, 5, 6, 7, 8)
        assert ball(cat_a, 4, 0) == (4,)

    @given(digraphs(max_n=6), st.integers(0, 4))
    def test_layers_partition_ball(self, g, depth):
        seen = set()
        for layer in range(depth + 1):
            cur = set(distance_layer(g, 0, layer))
            assert not cur & seen
            seen |= cur
        assert seen == set(ball(g, 0, depth))

    @given(digraphs(max_n=6), st.integers(1, 3))
    def test_ball_outliers_partition_vertices(self, g, k):
        for u in range(g.n):
            inside = set(ball(g, u, k))
            outside = set(outlier_set(g, u, k))
            assert not inside & outside
            assert inside | outside == set(range(g.n))

    @given(digraphs(max_n=7, loops=True), st.integers(0, 4))
    def test_match_bfs_oracle(self, g, r):
        counts = [0] * g.n
        for u in range(g.n):
            dist = bfs_distances(g, u)
            outliers = tuple(v for v in range(g.n) if dist.get(v, r + 1) > r)
            assert ball(g, u, r) == tuple(sorted(v for v, dv in dist.items() if dv <= r))
            assert distance_layer(g, u, r) == tuple(sorted(v for v, dv in dist.items() if dv == r))
            assert outlier_set(g, u, r) == outliers
            for v in outliers:
                counts[v] += 1
        assert outlier_multiplicity(g, r) == tuple(counts)


class TestGeodetic:
    def test_catalogs_are_2_geodetic(self, cat_a, cat_b):
        assert is_k_geodetic(cat_a, 2)
        assert is_k_geodetic(cat_b, 2)

    def test_k3_has_digon(self):
        assert is_k_geodetic(K3, 1)
        assert not is_k_geodetic(K3, 2)

    def test_three_cycle(self):
        assert is_k_geodetic(THREE_CYCLE, 2)
        assert not is_k_geodetic(THREE_CYCLE, 3)

    def test_violation_witness_shape(self):
        v = find_geodetic_violation(K3, 2)
        assert v is not None
        assert v.source == 0 and v.target == 0
        assert v.walk_a == (0,)
        assert v.walk_b == (0, 1, 0)

    def test_violation_two_distinct_paths(self):
        # two length-<=2 routes from 0 to 3
        g = Digraph(4, [(1, 2), (3,), (3,), ()])
        v = find_geodetic_violation(g, 2)
        assert (v.source, v.target) == (0, 3)
        assert v.walk_a == (0, 1, 3)
        assert v.walk_b == (0, 2, 3)

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            is_k_geodetic(THREE_CYCLE, 0)

    @given(digraphs(max_n=6, loops=True), st.integers(1, 3))
    @settings(max_examples=150)
    def test_matches_path_enumeration_oracle(self, g, k):
        assert is_k_geodetic(g, k) == geodetic_oracle(g, k)

    @given(digraphs(max_n=6, loops=True), st.integers(1, 3))
    @settings(max_examples=150)
    def test_witness_is_first_pair_with_two_walks(self, g, k):
        v = find_geodetic_violation(g, k)
        expected = first_violation_oracle(g, k)
        if expected is None:
            assert v is None
            return
        assert (v.source, v.target) == expected
        assert v.walk_a != v.walk_b
        for walk in (v.walk_a, v.walk_b):
            assert walk in walks_from(g, v.source, k)
            assert walk[-1] == v.target
        # and they are that pair's first two walks in lexicographic order
        ends_at_target = [w for w in walks_from(g, v.source, k) if w[-1] == v.target]
        assert (v.walk_a, v.walk_b) == tuple(sorted(ends_at_target)[:2])

    @given(digraphs(max_n=6, loops=True), st.data())
    def test_depths_past_twice_the_order_change_no_ball(self, g, data):
        # find_geodetic_violation scans at most 2n steps: a violation with a
        # walk of n or more steps has a cycle within n-1 steps of the source
        n = g.n
        k = data.draw(st.integers(2 * n + 1, 4 * n))
        masks = [sum(1 << w for w in targets) for targets in g.out]
        balls = [geodetic_ball(masks, u, k) for u in range(n)]
        assert balls == [geodetic_ball(masks, u, 2 * n) for u in range(n)]
        # so the witness comes from the first source whose k-ball fails
        v = find_geodetic_violation(g, k)
        assert (None if v is None else v.source) == next((u for u, b in enumerate(balls) if not b), None)

    @given(digraphs(max_n=6, loops=True), st.integers(1, 3))
    def test_geodetic_ball_is_ball_or_zero(self, g, k):
        masks = [sum(1 << w for w in targets) for targets in g.out]
        for u in range(g.n):
            ends = [walk[-1] for walk in walks_from(g, u, k)]
            inside = sum(1 << v for v, dv in bfs_distances(g, u).items() if dv <= k)
            expected = inside if len(ends) == len(set(ends)) else 0
            assert geodetic_ball(masks, u, k) == expected
            # the prefix balls of radius 0..k, or none at all
            radii = [sum(1 << v for v, dv in bfs_distances(g, u).items() if dv <= r)
                     for r in range(k + 1)]
            assert geodetic_balls(masks, u, k) == (radii if expected else [])


class TestOutliers:
    def test_catalog_values(self, cat_a, cat_b):
        assert outlier_set(cat_a, 0, 2) == (7, 8)
        assert outlier_set(cat_a, 7, 2) == (1, 4)
        assert outlier_set(cat_b, 0, 2) == (7, 8)
        assert outlier_set(cat_b, 3, 2) == (1, 4)

    def test_moore_digraph_has_none(self):
        assert outlier_set(THREE_CYCLE, 0, 2) == ()


class TestExcess:
    def test_values(self, cat_a):
        assert excess(cat_a, 2, 2) == 2
        assert excess(THREE_CYCLE, 1, 2) == 0
        assert excess(K3, 2, 1) == 0

    def test_may_be_negative(self):
        assert excess(Digraph(2, [(1,), (0,)]), 2, 2) == -5


class TestDiregular:
    def test_catalogs(self, cat_a, cat_b):
        assert is_diregular(cat_a, 2)
        assert is_diregular(cat_b, 2)

    def test_star_is_not(self):
        assert not is_diregular(Digraph(3, [(1, 2), (), ()]), 2)

    def test_cycle_is_1_diregular(self):
        assert is_diregular(THREE_CYCLE, 1)


class TestSearchParams:
    def test_order(self):
        assert SearchParams(d=2, k=2, epsilon=2).order == 9
        assert SearchParams(d=2, k=3, epsilon=2).order == 17

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(d=0, k=2, epsilon=0)
        with pytest.raises(ValueError):
            SearchParams(d=2, k=0, epsilon=0)
        with pytest.raises(ValueError):
            SearchParams(d=2, k=2, epsilon=-1)
        with pytest.raises(ValueError):
            SearchParams(d=2, k=2, epsilon=0, max_results=0)
        with pytest.raises(ValueError):
            SearchParams(d=2, k=2, epsilon=0, max_nodes=-1)


class TestVerify:
    def test_catalog_a_passes(self, cat_a):
        r = verify(cat_a, SearchParams(d=2, k=2, epsilon=2, diregular=True))
        assert r.ok
        assert r.order == 9 and r.expected_order == 9
        assert r.outlier_counts == (2,) * 9

    def test_catalog_b_passes(self, cat_b):
        r = verify(cat_b, SearchParams(d=2, k=2, epsilon=2, diregular=True))
        assert r.ok
        assert r.outlier_counts == (2,) * 9

    def test_directed_4_cycle(self):
        c4 = Digraph(4, [(1,), (2,), (3,), (0,)])
        assert verify(c4, SearchParams(d=1, k=3, epsilon=0, diregular=True)).ok

    def test_missing_arc_fails_outdegree(self, cat_a):
        out = list(cat_a.out)
        out[8] = (6,)
        r = verify(Digraph(9, out), SearchParams(d=2, k=2, epsilon=2))
        assert not r.outdegree_ok
        assert not r.ok

    def test_geodetic_failure_records_witness(self):
        digon = Digraph(2, [(1,), (0,)])
        r = verify(digon, SearchParams(d=1, k=2, epsilon=0))
        assert not r.geodetic_ok
        assert r.geodetic_witness is not None

    def test_wrong_order_flagged(self, cat_a):
        r = verify(cat_a, SearchParams(d=2, k=2, epsilon=1))
        assert not r.order_ok
        assert not r.ok

    def test_diregular_only_required_when_flagged(self):
        # out-regular but not in-regular: in-degrees differ
        g = Digraph(4, [(1, 2), (2, 3), (1, 3), (1, 2)])
        loose = verify(g, SearchParams(d=2, k=1, epsilon=1))
        strict = verify(g, SearchParams(d=2, k=1, epsilon=1, diregular=True))
        assert loose.ok
        assert not strict.diregular_ok
        assert not strict.ok
