import pytest
from hypothesis import given, settings, strategies as st

from geodex import (
    Digraph,
    PartialDigraph,
    SearchParams,
    canonical_form,
    is_k_geodetic,
    prune,
    run_task,
    search,
    seed_tree,
    split_tasks,
    verify,
)
from oracles import naive_diregular_search

P222 = SearchParams(d=2, k=2, epsilon=2, diregular=True)


class TestSeedTree:
    def test_2_2_shape(self):
        s = seed_tree(P222)
        assert s.n == 9
        assert s.out[:3] == ((1, 2), (3, 4), (5, 6))
        assert s.out[3:] == ((),) * 6

    def test_path_seed_for_degree_one(self):
        s = seed_tree(SearchParams(d=1, k=3, epsilon=0, diregular=True))
        assert s.out == ((1,), (2,), (3,), ())

    def test_2_3_tree_with_two_spare_vertices(self):
        s = seed_tree(SearchParams(d=2, k=3, epsilon=2, diregular=True))
        assert s.n == 17
        assert sum(1 for row in s.out if row) == 7
        assert s.out[6] == (13, 14)
        assert s.out[7:] == ((),) * 10


class TestPrune:
    def test_keeps_seed(self):
        assert prune(seed_tree(P222), P222) is False

    def test_cuts_short_cycle(self):
        # 0 -> 1 -> 3 -> 0 is a 3-cycle, forbidden for k=3
        p3 = SearchParams(d=2, k=3, epsilon=2, diregular=True)
        partial3 = PartialDigraph(n=17, out=((1, 2), (3, 4), (5, 6), (0,)) + ((),) * 13)
        assert prune(partial3, p3) is True

    def test_cuts_duplicate_walk(self):
        partial = PartialDigraph(n=9, out=((1, 2), (3, 4), (3,), (), (), (), (), (), ()))
        # both 0->1->3 and 0->2->3 reach 3 within two steps
        assert prune(partial, P222) is True

    def test_cuts_in_degree_overflow(self):
        partial = PartialDigraph(n=9, out=((1, 2), (3, 4), (5, 6), (5,), (5,), (), (), (), ()))
        assert prune(partial, P222) is True

    def test_keeps_catalog_prefix(self, cat_a):
        partial = PartialDigraph(n=9, out=cat_a.out[:6] + ((),) * 3)
        assert prune(partial, P222) is False

    def test_keeps_completed_catalog(self, cat_a, cat_b):
        for g in (cat_a, cat_b):
            assert prune(PartialDigraph(n=9, out=g.out), P222) is False


class TestClassification:
    def test_finds_exactly_the_two_catalog_digraphs(self, cat_a, cat_b):
        out = search(P222)
        assert out.complete
        assert len(out.results) == 2
        assert {r.form for r in out.results} == {
            canonical_form(cat_a),
            canonical_form(cat_b),
        }

    def test_results_sorted_by_form(self):
        out = search(P222)
        forms = [r.form for r in out.results]
        assert forms == sorted(forms)

    def test_representatives_verify(self):
        for r in search(P222).results:
            assert verify(r.digraph, P222).ok

    def test_node_count_frozen(self):
        # deterministic node accounting; changes mean the walk order changed
        assert search(P222).nodes_explored == 3724


class TestNonexistence:
    def test_no_excess_one_digraph(self):
        out = search(SearchParams(d=2, k=2, epsilon=1, diregular=True))
        assert out.complete
        assert out.results == ()
        assert out.nodes_explored == 358

    def test_no_out_regular_excess_one_digraph(self):
        out = search(SearchParams(d=2, k=2, epsilon=1, diregular=False))
        assert out.complete
        assert out.results == ()

    def test_moore_sanity_degree_one(self):
        out = search(SearchParams(d=1, k=2, epsilon=0, diregular=True))
        assert [r.digraph for r in out.results] == [Digraph(3, [(1,), (2,), (0,)])]

    def test_moore_sanity_k_one(self):
        out = search(SearchParams(d=2, k=1, epsilon=0, diregular=True))
        assert [r.digraph for r in out.results] == [
            Digraph(3, [(1, 2), (0, 2), (0, 1)])
        ]


class TestDeterminism:
    def test_worker_counts_agree(self):
        base = search(P222, jobs=1)
        for jobs in (2, 4):
            out = search(P222, jobs=jobs)
            assert [r.form for r in out.results] == [r.form for r in base.results]
            assert [r.digraph for r in out.results] == [
                r.digraph for r in base.results
            ]
            assert out.nodes_explored == base.nodes_explored
            assert out.complete == base.complete

    def test_repeat_runs_identical(self):
        a, b = search(P222), search(P222)
        assert a == b

    def test_split_granularity_preserves_results(self):
        base = {r.form for r in search(P222).results}
        for slots in (2, 6):
            out = search(P222, split_slots=slots)
            assert {r.form for r in out.results} == base
            assert out.complete


class TestBudgets:
    def test_budget_marks_incomplete(self):
        full = search(P222).nodes_explored
        out = search(SearchParams(d=2, k=2, epsilon=2, diregular=True,
                                  max_nodes=full // 2))
        assert not out.complete
        assert out.nodes_explored <= full // 2

    def test_zero_budget_explores_nothing(self):
        out = search(SearchParams(d=2, k=2, epsilon=2, diregular=True, max_nodes=0))
        assert not out.complete
        assert out.results == ()

    def test_max_results_truncates_and_marks_incomplete(self):
        out = search(SearchParams(d=2, k=2, epsilon=2, diregular=True, max_results=1))
        assert len(out.results) == 1
        assert not out.complete

    def test_budget_of_the_whole_tree_completes(self):
        out = search(SearchParams(2, 2, 2, True, max_nodes=3724))
        assert out.complete
        assert out.nodes_explored == 3724
        assert len(out.results) == 2

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_budget_takes_whole_tasks_in_order(self, jobs):
        # reference: the split, then each task's unbudgeted size while it fits
        budget = 1500
        tasks, stats = split_tasks(P222)
        nodes = stats["nodes"]
        for task in tasks:
            size = run_task(P222, task)[1]
            if nodes + size > budget:
                break
            nodes += size
        serial = search(SearchParams(2, 2, 2, True, max_nodes=budget))
        out = search(SearchParams(2, 2, 2, True, max_nodes=budget), jobs=jobs)
        assert out == serial
        assert out.nodes_explored == nodes
        assert not out.complete

    def test_generous_budget_still_complete(self):
        out = search(SearchParams(d=2, k=2, epsilon=2, diregular=True,
                                  max_nodes=10**7))
        assert out.complete
        assert len(out.results) == 2


class TestTaskSplitting:
    def test_split_covers_space(self):
        tasks, stats = split_tasks(P222, "full", 4, None)
        assert tasks
        merged = dict(stats["results"])
        nodes = stats["nodes"]
        for task in tasks:
            results, task_nodes, stopped = run_task(P222, task, "full", None)
            assert not stopped
            nodes += task_nodes
            for form, g in results.items():
                merged.setdefault(form, g)
        direct = search(P222)
        assert len(merged) == 2
        assert nodes == direct.nodes_explored

    def test_tasks_are_valid_partials(self):
        tasks, _ = split_tasks(P222, "full", 4, None)
        for task in tasks:
            assert task.n == 9
            assert all(len(row) <= 2 for row in task.out)


class TestPruningModes:
    def test_basic_agrees_on_classification(self):
        full = search(P222)
        basic = search(P222, pruning="basic")
        assert [r.form for r in basic.results] == [r.form for r in full.results]
        assert basic.complete

    def test_basic_explores_at_least_as_much(self):
        assert (
            search(P222, pruning="basic").nodes_explored
            >= search(P222).nodes_explored
        )

    def test_basic_agrees_on_nonexistence(self):
        p = SearchParams(d=2, k=2, epsilon=1, diregular=True)
        assert search(p, pruning="basic").results == ()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            search(P222, pruning="fancy")


class TestAgainstNaiveEnumeration:
    @pytest.mark.parametrize(
        "d,k,eps,expected",
        [(1, 2, 0, 1), (2, 1, 0, 1), (1, 3, 0, 1), (1, 2, 1, 1), (2, 1, 1, 2),
         (2, 1, 2, 5)],
    )
    def test_matches_generate_and_filter(self, d, k, eps, expected):
        params = SearchParams(d=d, k=k, epsilon=eps, diregular=True)
        naive = naive_diregular_search(d, k, params.order)
        out = search(params)
        assert out.complete
        assert len(naive) == expected
        assert {r.form for r in out.results} == set(naive)


class TestEmittedInvariants:
    @given(st.sampled_from([(1, 2, 0), (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 2, 2)]))
    @settings(max_examples=10, deadline=None)
    def test_every_result_is_geodetic_and_diregular(self, case):
        d, k, eps = case
        params = SearchParams(d=d, k=k, epsilon=eps, diregular=True)
        for r in search(params).results:
            assert is_k_geodetic(r.digraph, k)
            assert verify(r.digraph, params).ok
