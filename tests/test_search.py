import concurrent.futures
import hashlib
import json
import multiprocessing
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from geodex import (
    Digraph,
    SearchParams,
    canonical_form,
    is_k_geodetic,
    run_task,
    search,
    seed_tree,
    split_tasks,
    verify,
)
from geodex.catalog import MAX_ORDER
from geodex.search import _Engine
from oracles import bfs_distances, naive_diregular_search, partial_cut_oracle

P222 = SearchParams(d=2, k=2, epsilon=2, diregular=True)
# (d, k, epsilon, diregular) of the searches that random partials are drawn for
PARTIAL_CASES = ((2, 2, 2, True), (2, 2, 2, False), (2, 2, 3, True), (2, 3, 2, True),
                 (3, 2, 1, True))


class TestSeedTree:
    def test_2_2_shape(self):
        s = seed_tree(P222)
        assert s.n == 9
        assert s.out[:3] == ((1, 2), (3, 4), (5, 6))
        assert s.out[3:] == ((),) * 6

    def test_path_seed_for_degree_one(self):
        s = seed_tree(SearchParams(d=1, k=3, epsilon=0, diregular=True))
        assert s.out == ((1,), (2,), (3,), ())

    def test_order_limit(self):
        # moore_bound(2, 11) = 4095
        assert seed_tree(SearchParams(d=2, k=11, epsilon=1)).n == MAX_ORDER
        with pytest.raises(ValueError, match="exceeds the limit"):
            seed_tree(SearchParams(d=2, k=11, epsilon=2))

    def test_2_3_tree_with_two_spare_vertices(self):
        s = seed_tree(SearchParams(d=2, k=3, epsilon=2, diregular=True))
        assert s.n == 17
        assert sum(1 for row in s.out if row) == 7
        assert s.out[6] == (13, 14)
        assert s.out[7:] == ((),) * 10


def _oracle_cuts(partial, params, pruning):
    return partial_cut_oracle(partial, params.d, params.k, params.epsilon, params.diregular,
                              pruning == "full")


def _start_kept(partial, params, pruning="full"):
    """Whether the engine keeps partial as a task start, asserted equal to the oracle."""
    kept = _Engine(params, pruning, partial, budget=None).enter()
    assert kept == (not _oracle_cuts(partial, params, pruning))
    return kept


class TestPrune:
    # the cuts at a task's start, where the engine lands the partial's arcs
    # one at a time through the same per-arc check as the search

    def test_keeps_seed(self):
        assert _start_kept(seed_tree(P222), P222) is True

    def test_cuts_short_cycle(self):
        # 0 -> 1 -> 3 -> 0 is a 3-cycle, forbidden for k=3
        p3 = SearchParams(d=2, k=3, epsilon=2, diregular=True)
        partial3 = Digraph(17, ((1, 2), (3, 4), (5, 6), (0,)) + ((),) * 13)
        assert _start_kept(partial3, p3) is False

    def test_cuts_duplicate_walk(self):
        partial = Digraph(9, ((1, 2), (3, 4), (3,), (), (), (), (), (), ()))
        # both 0->1->3 and 0->2->3 reach 3 within two steps
        assert _start_kept(partial, P222) is False

    def test_cuts_in_degree_overflow(self):
        partial = Digraph(9, ((1, 2), (3, 4), (5, 6), (5,), (5,), (), (), (), ()))
        assert _start_kept(partial, P222) is False
        # geodetic, so only vertex 5's in-degree of 3 cuts it
        partial = Digraph(9, ((1, 2), (3, 4), (5, 6), (5,), (), (), (), (5,), ()))
        assert _start_kept(partial, P222) is False
        assert _start_kept(partial, SearchParams(2, 2, 2, diregular=False)) is True

    def test_cuts_on_multiplicity_in_full_mode_only(self):
        # geodetic, but vertex 8 is outside the finished balls of 0, 1 and 6
        partial = Digraph(9, ((1, 2), (3, 4), (5, 6), (0, 5), (2, 7), (7, 8), (3, 4), (), ()))
        assert _start_kept(partial, P222, "full") is False
        assert _start_kept(partial, P222, "basic") is True

    def test_keeps_catalog_prefix(self, cat_a):
        partial = Digraph(9, cat_a.out[:6] + ((),) * 3)
        assert _start_kept(partial, P222) is True

    def test_keeps_completed_catalog(self, cat_a, cat_b):
        for g in (cat_a, cat_b):
            assert _start_kept(g, P222) is True

    def test_rejects_a_partial_of_another_shape(self):
        with pytest.raises(ValueError, match="partial has order 8, params require 9"):
            _Engine(P222, "full", Digraph(8, [()] * 8), budget=None)
        with pytest.raises(ValueError, match="vertex 0 has more than 2 out-neighbours"):
            _Engine(P222, "full", Digraph(9, [(1, 2, 3)] + [()] * 8), budget=None)

    @given(st.data(), st.sampled_from(["basic", "full"]))
    @settings(max_examples=200, deadline=None)
    def test_random_starts_match_the_oracle(self, data, pruning):
        # any arcs on the seed tree: self-loops and in-degrees above d too
        d, k, eps, diregular = data.draw(st.sampled_from(PARTIAL_CASES))
        params = SearchParams(d=d, k=k, epsilon=eps, diregular=diregular)
        n = params.order
        out = [list(row) for row in seed_tree(params).out]
        for _ in range(data.draw(st.integers(0, n))):
            v = data.draw(st.sampled_from([v for v in range(n) if len(out[v]) < d]))
            out[v].append(data.draw(st.sampled_from([w for w in range(n) if w not in out[v]])))
        _start_kept(Digraph(n, out), params, pruning)


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

    def test_out_regular_search_finds_only_the_diregular_classes(self):
        # every 2-out-regular 2-geodetic digraph of order 9 is diregular
        out = search(SearchParams(d=2, k=2, epsilon=2, diregular=False))
        assert out.complete
        assert out.nodes_explored == 8806
        assert [r.form for r in out.results] == [r.form for r in search(P222).results]


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

    # (2,2,+2) splits into 30 tasks; None means no pool, a serial run
    @pytest.mark.parametrize("jobs,cores,workers", [
        (64, 1000, 30), (64, 4, 4), (3, 1000, 3), (64, 1, None), (64, None, None),
    ])
    def test_pool_never_larger_than_tasks_or_cores(self, monkeypatch, jobs, cores, workers):
        serial = search(P222)
        sizes = []

        class InlinePool:
            # records the size asked for and runs the tasks in this process
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert search(P222, jobs=jobs) == serial
        assert sizes == ([] if workers is None else [workers])

    def test_repeat_runs_identical(self):
        a, b = search(P222), search(P222)
        assert a == b

    def test_split_granularity_preserves_results(self, monkeypatch):
        import importlib

        base = {r.form for r in search(P222).results}
        for slots, size in ((2, 8), (6, 152)):  # 30 tasks at the default 4
            monkeypatch.setattr(importlib.import_module("geodex.search"), "SPLIT_SLOTS", slots)
            assert len(split_tasks(P222)[0]) == size
            out = search(P222)
            assert {r.form for r in out.results} == base
            assert out.complete
            assert out.nodes_explored == 3724


class TestPoolEarlyStop:
    # a worker killed while it holds the result queue's lock can hang the
    # pool for ever, so a pooled run that stops early must kill none
    @pytest.mark.parametrize("params", [
        SearchParams(2, 2, 2, True, max_nodes=1500),
        SearchParams(2, 2, 2, True, max_results=1),
    ], ids=["budget", "max_results"])
    def test_stops_without_terminating_a_worker(self, monkeypatch, params):
        serial = search(params)
        assert not serial.complete

        def terminate(process):
            raise AssertionError(f"{process.name} was terminated")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", terminate)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
        for _ in range(3):
            assert search(params, jobs=2) == serial


class TestCanonMemo:
    def test_each_search_starts_with_an_empty_memo(self, monkeypatch):
        import importlib

        engine = importlib.import_module("geodex.search")
        real = engine.canonical_form
        memos = []

        def recording(g, memo=None):
            memos.append((memo, len(memo)))
            return real(g, memo)

        monkeypatch.setattr(engine, "canonical_form", recording)
        for _ in range(2):
            memos.clear()
            assert len(search(P222).results) == 2
            assert len(memos) == 56
            assert memos[0][1] == 0
            assert all(memo is memos[0][0] for memo, _ in memos)  # one memo for every leaf
            assert memos[0][0] == {}  # emptied once search() returns

    def test_split_and_tasks_by_hand_share_the_memo_of_search(self, monkeypatch):
        # driving split_tasks and then run_task on each task, as a caller
        # outside search() does, must refine no more often than search()
        import geodex.canon as canon_module

        real, calls = canon_module._refine, []

        def counting(g, cells):
            calls.append(1)
            return real(g, cells)

        monkeypatch.setattr(canon_module, "_refine", counting)
        search(P222)
        in_search = len(calls)
        calls.clear()
        tasks, _ = split_tasks(P222)
        for task in tasks:
            run_task(P222, task)
        assert len(calls) == in_search

    def test_jobs_1_and_2_identical_on_a_leaf_rich_search(self):
        params = SearchParams(d=2, k=2, epsilon=3, diregular=True)
        serial, pooled = search(params, jobs=1), search(params, jobs=2)
        assert serial == pooled
        assert (len(serial.results), serial.nodes_explored) == (7, 39559)


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
        tasks, stats = split_tasks(P222, "full")
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

    # the checkpoint key's "tasks" field: a change refuses every saved checkpoint
    @pytest.mark.parametrize("epsilon,digest", [
        (2, "1b806c6228060bffc1345850ce7dd0425dffed649c73f3c2aa39a8584dcc290c"),
        (3, "ed7dfaa4bd355285ddd11474fdbdea5df606fcbe4f9ae9f649463dcb4b63e6be"),
    ], ids=["excess2", "excess3"])
    @pytest.mark.parametrize("pruning", ["full", "basic"])
    def test_task_list_sha256_pinned(self, epsilon, digest, pruning):
        tasks, _ = split_tasks(SearchParams(2, 2, epsilon, True), pruning)
        shape = json.dumps([task.out for task in tasks]).encode()
        assert hashlib.sha256(shape).hexdigest() == digest

    def test_tasks_are_valid_partials(self):
        tasks, _ = split_tasks(P222, "full")
        for task in tasks:
            assert isinstance(task, Digraph) and task.n == 9
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

    @pytest.mark.parametrize("epsilon,full_nodes,basic_nodes,classes", [
        (2, 3724, 3960, 2), (3, 39559, 53355, 7),
    ])
    def test_node_counts_frozen(self, epsilon, full_nodes, basic_nodes, classes):
        params = SearchParams(d=2, k=2, epsilon=epsilon, diregular=True)
        full = search(params)
        basic = search(params, pruning="basic")
        assert (full.nodes_explored, basic.nodes_explored) == (full_nodes, basic_nodes)
        assert len(full.results) == classes
        assert [r.form for r in basic.results] == [r.form for r in full.results]

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


class _AuditedEngine(_Engine):
    """The engine with its per-arc check, its stored balls and its undo audited at every arc."""

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.pruning = pruning
        self.checked = 0

    def _fresh_balls(self):
        g = Digraph(self.n, self._rows())
        return [sum(1 << x for x, t in bfs_distances(g, u).items() if t <= self.k)
                for u in range(self.n)]

    def _check_after(self, v, w):
        before = list(self.balls)
        undo = super()._check_after(v, w)
        self.checked += 1
        partial = Digraph(self.n, self._rows())
        assert (undo is not None) == (not _oracle_cuts(partial, self.params, self.pruning))
        if undo is None:
            assert self.balls == before
        else:
            assert self.balls == self._fresh_balls()
        return undo

    def _state(self):
        return list(self.balls), list(self.out_mask), list(self.in_mask), self.max_used

    def _dfs(self, hint, depth):
        before = self._state()
        super()._dfs(hint, depth)
        assert self._state() == before


@st.composite
def geodetic_partials(draw, cases=PARTIAL_CASES):
    """A search's parameters and a partial on its seed tree that basic pruning keeps.

    cases lists the (d, k, epsilon, diregular) to draw from.
    """
    d, k, eps, diregular = draw(st.sampled_from(cases))
    params = SearchParams(d=d, k=k, epsilon=eps, diregular=diregular)
    out = [list(row) for row in seed_tree(params).out]
    n = params.order
    for _ in range(draw(st.integers(0, n))):
        open_ = [v for v in range(n) if len(out[v]) < d]
        if not open_:
            break
        v = draw(st.sampled_from(open_))
        in_deg = [sum(w in row for row in out) for w in range(n)]
        targets = [w for w in range(n) if w != v and w not in out[v]
                   and not (diregular and in_deg[w] >= d)]
        if not targets:
            continue
        out[v].append(draw(st.sampled_from(targets)))
        if _oracle_cuts(Digraph(n, out), params, "basic"):
            out[v].pop()
    return params, Digraph(n, out)


class TestIncrementalCheck:
    @given(geodetic_partials(), st.sampled_from(["basic", "full"]))
    @settings(max_examples=100, deadline=None)
    def test_matches_full_rescan(self, case, pruning):
        # every arc the engine lands, the start partial's first: its verdict
        # is the oracle's, its stored balls are the BFS k-balls, and the
        # undo restores them
        params, partial = case
        engine = _AuditedEngine(params, pruning, partial, budget=150)
        assume(engine.enter())  # the global cuts may drop what basic kept
        initial = list(engine.balls)
        assert initial == engine._fresh_balls()
        engine.checked = 0
        engine._dfs(0, 0)
        assert engine.balls == initial
        assert engine.checked == engine.nodes

    def test_whole_search_audited(self):
        engine = _AuditedEngine(P222, "full", seed_tree(P222), budget=None)
        engine.run()
        assert engine.nodes == 3724
        assert len(engine.results) == 2
        assert engine.balls == engine._fresh_balls()


def _twin_violations(g, k):
    """The twin lemma's conditions that fail on g, from BFS distances alone.

    For u != v with the same full out-list {a, b}: a and b must not reach
    each other within k steps, and when u's and v's k-balls are finished
    (every vertex within k-1 steps has its whole out-list) each is an
    outlier of the other and their outlier sets agree apart from u and v.
    """
    n = g.n
    dist = [bfs_distances(g, u) for u in range(n)]
    outliers = [{x for x in range(n) if dist[u].get(x, k + 1) > k} for u in range(n)]
    finished = [all(len(g.out[x]) == 2 for x, t in dist[u].items() if t < k) for u in range(n)]
    failed, pairs = [], 0
    for u in range(n):
        for v in range(u + 1, n):
            if len(g.out[u]) != 2 or g.out[u] != g.out[v]:
                continue
            a, b = g.out[u]
            if dist[a].get(b, k + 1) <= k or dist[b].get(a, k + 1) <= k:
                failed.append(("shared out-neighbours meet", u, v))
            if finished[u] and finished[v]:
                pairs += 1
                if v not in outliers[u] or u not in outliers[v]:
                    failed.append(("twins not outliers of each other", u, v))
                if outliers[u] - {v} != outliers[v] - {u}:
                    failed.append(("outlier sets differ", u, v))
    return failed, pairs


class _TwinAuditEngine(_Engine):
    """The engine with the twin lemma checked on every partial it keeps."""

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.kept = self.pairs = 0

    def _audit(self):
        g = Digraph(self.n, self._rows())
        failed, pairs = _twin_violations(g, self.k)
        assert failed == [], (g.out, failed)
        self.kept += 1
        self.pairs += pairs

    def _check_after(self, v, w):
        undo = super()._check_after(v, w)
        if undo is not None:
            self._audit()
        return undo


class TestTwinLemmaHolds:
    # the engine has no twin cut: on a k-geodetic partial the lemma holds
    # by itself, and these tests check that it does on every kept partial

    @given(geodetic_partials(cases=((2, 2, 2, True), (2, 3, 2, True))),
           st.sampled_from(["basic", "full"]))
    @settings(max_examples=100, deadline=None)
    def test_on_random_partials(self, case, pruning):
        params, partial = case
        engine = _TwinAuditEngine(params, pruning, partial, budget=150)
        engine.run()

    @pytest.mark.parametrize("pruning,nodes", [("full", 3724), ("basic", 3960)])
    def test_whole_search(self, pruning, nodes):
        engine = _TwinAuditEngine(P222, pruning, seed_tree(P222), budget=None)
        engine.run()
        assert engine.nodes == nodes
        assert len(engine.results) == 2
        assert engine.kept > 1000 and engine.pairs > 100  # the conditions were tested
