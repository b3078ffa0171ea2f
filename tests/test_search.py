import concurrent.futures
import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

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
from geodex.core import _members
from geodex.reach import layers
from geodex.search import SPLIT_SLOTS, _Engine
from oracles import bfs_distances, naive_diregular_search, outlier_counts, partial_cut_oracle

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


def _fields(x, n, k):
    """The k n-bit fields of x, field t being bits t*n to t*n+n-1, as the engine packs its sets."""
    return [x >> t * n & (1 << n) - 1 for t in range(k)]


def _counts(shut, n, epsilon):
    """The per-vertex counts that a packed shut holds: u's is the number of its fields 0..epsilon holding u.

    Field j holds the vertices counted more than j times, so the fields
    must be nested, each inside the one below it.
    """
    fields = _fields(shut, n, epsilon + 1)
    assert shut >> (epsilon + 1) * n == 0
    assert all(above & ~below == 0 for below, above in zip(fields, fields[1:]))
    return [sum(field >> u & 1 for field in fields) for u in range(n)]


def _oracle_cuts(partial, params, pruning):
    return partial_cut_oracle(partial, params.d, params.k, params.epsilon, params.diregular,
                              pruning == "full")


class _LiveOnly(_Engine):
    """The engine with _check's precondition asserted: w is in neither in_full nor U."""

    def _check(self, v, w, frame):
        assert not (self.in_full | frame[2]) >> w & 1
        return super()._check(v, w, frame)


def _start_kept(partial, params, pruning="full"):
    """Whether the engine keeps partial as a task start, asserted equal to the oracle.

    enter() must bar a target in in_full or U itself, before _check.
    """
    kept = _LiveOnly(params, pruning, partial, budget=None).enter()
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

    # the paper's theorem at k = 3, and the second nonexistence case of
    # Miller, Miret & Sillasen ("On digraphs of excess one", DAM 2018)
    @pytest.mark.parametrize("pruning", ["full", "basic"])
    def test_no_diregular_2_3_excess_two_digraph(self, pruning):
        out = search(SearchParams(d=2, k=3, epsilon=2, diregular=True), pruning=pruning)
        assert (out.results, out.complete, out.nodes_explored) == ((), True, 232151)

    def test_no_diregular_3_2_excess_one_digraph(self):
        out = search(SearchParams(d=3, k=2, epsilon=1, diregular=True))
        assert (out.results, out.complete, out.nodes_explored) == ((), True, 1025368)

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

    # CI's Linux runners fork pool workers; macOS spawns them, and Python
    # 3.14 starts them by forkserver on Linux, so the pickled tasks, results
    # and module state must give the same outcome under both
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_other_start_methods(self, method):
        script = (
            "import concurrent.futures, json, multiprocessing, os\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # a pool even on one core\n"
            "pools = []\n"
            "class Recorded(concurrent.futures.ProcessPoolExecutor):\n"
            "    def __init__(self, max_workers):\n"
            "        pools.append(max_workers)\n"
            "        super().__init__(max_workers)\n"
            "concurrent.futures.ProcessPoolExecutor = Recorded\n"
            "from geodex import SearchParams, search\n"
            "out = search(SearchParams(d=2, k=2, epsilon=3, diregular=True), jobs=2)\n"
            "print(json.dumps([pools, out.nodes_explored, out.complete,\n"
            "                  [(r.form.hex(), r.digraph.out) for r in out.results]]))\n"
        )
        r = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", script],
                           capture_output=True, text=True, timeout=120)
        assert (r.returncode, r.stderr) == (0, "")
        serial = search(SearchParams(d=2, k=2, epsilon=3, diregular=True))
        assert (serial.nodes_explored, len(serial.results)) == (39559, 7)
        assert json.loads(r.stdout) == [[2], serial.nodes_explored, True,
                                        [[res.form.hex(), [list(row) for row in res.digraph.out]]
                                         for res in serial.results]]

    # (2,2,+2) splits into 30 tasks; cores is the machine's CPU count and
    # usable the CPUs this process may run on, None where the platform
    # cannot tell; workers None means no pool, a serial run
    @pytest.mark.parametrize("jobs,cores,usable,workers", [
        pytest.param(64, 1000, 1000, 30, id="64-1000-30"),
        pytest.param(64, 4, 4, 4, id="64-4-4"),
        pytest.param(3, 1000, 1000, 3, id="3-1000-3"),
        pytest.param(64, 1, 1, None, id="64-1-None"),
        pytest.param(64, None, None, None, id="64-None-None"),
        pytest.param(64, 4, None, 4, id="64-4-4-no-affinity"),
        pytest.param(2, 2, 1, None, id="2-2-None-1-usable"),
    ])
    def test_pool_never_larger_than_tasks_or_cores(self, monkeypatch, jobs, cores, usable,
                                                   workers):
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
        if usable is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                                raising=False)
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
        # a pool even on one core
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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

        def counting(g, cells, v=None):
            calls.append(1)
            return real(g, cells, v)

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


class TestVerifyOnce:
    @pytest.mark.parametrize("params,classes", [(P222, 2), (SearchParams(2, 2, 3, True), 7)],
                             ids=["2,2,+2", "2,2,+3"])
    def test_each_class_is_verified_once_per_search(self, monkeypatch, params, classes):
        import importlib

        engine = importlib.import_module("geodex.search")
        real, verified = engine.verify, []

        def counting(g, p):
            verified.append(canonical_form(g).data)
            return real(g, p)

        monkeypatch.setattr(engine, "verify", counting)
        for _ in range(2):  # the second search verifies its classes again
            verified.clear()
            out = search(params)
            assert sorted(verified) == [r.form.data for r in out.results]
            assert len(out.results) == classes

    def test_a_class_that_fails_verify_is_an_internal_error(self, monkeypatch):
        import importlib

        engine = importlib.import_module("geodex.search")
        real = engine.verify
        # one more vertex than the search builds, so every report fails on order
        monkeypatch.setattr(engine, "verify", lambda g, p: real(g, SearchParams(
            p.d, p.k, p.epsilon + 1, p.diregular)))
        with pytest.raises(RuntimeError, match="internal error"):
            search(P222)


def _assert_same_digraph(built, ref):
    assert built == ref and hash(built) == hash(ref)
    assert (built.n, built.out, built.in_lists) == (ref.n, ref.out, ref.in_lists)
    copy = pickle.loads(pickle.dumps(built))
    assert copy == ref and (copy.n, copy.out, copy.in_lists) == (ref.n, ref.out, ref.in_lists)


class _LeafCheck(_Engine):
    """The engine with every leaf and task it builds from its masks checked against Digraph()."""

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.leaves = 0

    def _emit(self):
        ref = Digraph(self.n, [_members(m, self.n) for m in self.out_mask])
        _assert_same_digraph(self._digraph(), ref)
        self.leaves += 1
        super()._emit()


class TestMaskBuiltDigraph:
    """Leaves and tasks are built from the engine's masks with no check; Digraph() is the reference."""

    @given(st.integers(0, 12).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    def test_any_bitset_rows(self, masks):
        # loops included: the masks need only be in range
        n = len(masks)
        ins = [sum(1 << v for v, m in enumerate(masks) if m >> w & 1) for w in range(n)]
        engine = SimpleNamespace(n=n, out_mask=masks, in_mask=ins)
        ref = Digraph(n, [[w for w in range(n) if m >> w & 1] for m in masks])
        _assert_same_digraph(_Engine._digraph(engine), ref)

    # the forms' sha256 is that of the sorted forms concatenated, as
    # perfbench/spec.py pins it for the out-regular search
    @pytest.mark.parametrize("params,leaves,nodes,classes,digest", [
        pytest.param(SearchParams(2, 2, 3, True), 344, 39559, 7,
                     "0675726dfd891eaaead55ac4a5c791f4dbb994939c15082b00cfde94ff660a73",
                     id="2,2,+3"),
        pytest.param(SearchParams(2, 2, 3, False), 10580, 375060, 107,
                     "8254026306182b1df8b940d6385395bc684ee0f8d9b11772b74b9da5a19bcffa",
                     id="2,2,+3-out-regular"),
    ])
    def test_every_leaf_and_task(self, params, leaves, nodes, classes, digest):
        split = _LeafCheck(params, "full", seed_tree(params), budget=None)
        split.run(split_at=SPLIT_SLOTS)
        forms = set(split.results)
        walked = split.nodes
        for task in split.tasks:
            _assert_same_digraph(task, Digraph(task.n, task.out))
            engine = _LeafCheck(params, "full", task, budget=None)
            engine.run()
            split.leaves += engine.leaves
            walked += engine.nodes
            forms |= engine.results.keys()
        assert split.leaves == leaves
        out = search(params)
        assert walked == out.nodes_explored == nodes
        assert forms == {r.form.data for r in out.results}
        assert len(forms) == classes
        assert hashlib.sha256(b"".join(sorted(forms))).hexdigest() == digest


class TestRowMemo:
    def test_emptied_by_split_tasks_and_by_search(self):
        decoded = importlib.import_module("geodex.search")._decoded
        stale = 1 << MAX_ORDER
        decoded[stale] = ()
        tasks, _ = split_tasks(P222)
        assert stale not in decoded
        # the split's tasks went through the memo, each mask to its members
        assert {row for task in tasks for row in task.out} <= set(decoded.values())
        assert all(row == tuple(w for w in range(mask.bit_length()) if mask >> w & 1)
                   for mask, row in decoded.items())
        decoded[stale] = ()
        assert len(search(P222).results) == 2
        assert decoded == {}


def _state(engine):
    """Everything a walk changes and must put back: balls, shut, the masks, max_used, in_full."""
    return (list(engine.balls), engine.shut, list(engine.out_mask), list(engine.in_mask),
            engine.max_used, engine.in_full)


class _EmitLog(_Engine):
    """The engine with the node count recorded at every kept landing, and with the results at every leaf.

    The start partial's arcs land at 0 nodes, which passes no budget.
    """

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.log = []
        self.landed = []

    def _emit(self):
        super()._emit()
        self.log.append((self.nodes, dict(self.results)))

    def _land(self, v, w, ahead, frame):
        kept = super()._land(v, w, ahead, frame)
        if kept:
            self.landed.append(self.nodes)
        return kept


P223 = SearchParams(d=2, k=2, epsilon=3, diregular=True)
P232 = SearchParams(d=2, k=3, epsilon=2, diregular=True)
P321 = SearchParams(d=3, k=2, epsilon=1, diregular=True)


class TestBudgets:
    # split tasks 0, 1 and 4 of (2,2,+3) (428, 254 and 226 nodes); task 74
    # of (3,2,+1) (272 nodes), where most frames are derived from their
    # parent; task 482 of (3,2,+1), whose first frame has three
    # candidates, all barred, so the walk pushes no frame at all; and task
    # 13 of (2,3,+2) (458 nodes), with k = 3, two frames with every
    # candidate barred after a filled row, and 34 children counted in
    # their parent frame, 23 of them with two candidates or more
    @pytest.mark.parametrize("params,index", [
        pytest.param(P223, 0, id="0"), pytest.param(P223, 1, id="1"),
        pytest.param(P223, 4, id="4"), pytest.param(P321, 74, id="3,2,+1-74"),
        pytest.param(P321, 482, id="3,2,+1-482-first-frame-barred"),
        pytest.param(P232, 13, id="2,3,+2-13"),
    ])
    def test_every_budget_stops_where_the_walk_does(self, params, index):
        # a budget of b nodes stops exactly the walks of more than b nodes.
        # A walk that is not stopped is the unbudgeted walk and puts the
        # state back.  A stopped one ends at the unbudgeted walk's first
        # landed arc past b, before it looks at that arc's child, with the
        # classes emitted before it, or at the walk's end when no arc lands
        # past b
        task = split_tasks(params)[0][index]
        walk = _EmitLog(params, "full", task, budget=None)
        walk.run()
        total = walk.nodes
        start = _Engine(params, "full", task, budget=None)
        assert start.enter()
        assert _state(walk) == _state(start)
        for b in range(total + 2):
            engine = _Engine(params, "full", task, budget=b)
            engine.run()
            assert (engine.nodes > b) == (b < total)
            if engine.nodes > b:
                assert engine.nodes <= total
            # run_task reports the same walk, stopped exactly when its nodes pass b
            assert run_task(params, task, budget=b) == (engine.results, engine.nodes, b < total)
            stop = next((at for at in walk.landed if at > b), None)
            if stop is None:
                assert (engine.results, engine.nodes) == (walk.results, total)
                assert _state(engine) == _state(start)
            else:
                emitted = [so_far for at, so_far in walk.log if at < stop]
                assert (engine.results, engine.nodes) == (emitted[-1] if emitted else {}, stop)

    @pytest.mark.parametrize("budget", range(5))
    def test_a_stop_in_a_first_frame_with_every_candidate_barred(self, budget):
        # the walk lands no arc, so it runs to its end, a frame that was
        # never pushed, and is stopped when its three nodes pass the
        # budget; the audit checks the count and the state left
        engine = _AuditedEngine(P321, "full", split_tasks(P321)[0][482], budget=budget)
        engine.run()
        assert (engine.nodes, engine.checked, engine.nodes > budget) == (3, 3, budget < 3)

    def test_a_stop_inside_a_child_counted_in_its_parent(self):
        # a budget that falls between the first and the last candidate of a
        # child counted in its parent frame stops the walk at its next
        # landed arc, with the audit on
        task = split_tasks(P232)[0][13]
        walk = _AuditedEngine(P232, "full", task, budget=None)
        walk.run()
        inside = [at + 1 for at, size in walk.counted if size >= 2]
        assert len(inside) == 23
        for budget in inside[:4]:
            stop = next((at for at in walk.landed if at > budget), walk.nodes)
            engine = _AuditedEngine(P232, "full", task, budget=budget)
            engine.run()
            assert (engine.nodes, engine.checked, engine.nodes > budget) == (stop, stop, True)

    @pytest.mark.parametrize("budget,nodes", [(0, 1), (1, 7), (10, 11), (1000, 1014)])
    def test_a_stop_comes_at_the_first_landed_arc_past_the_budget(self, budget, nodes):
        # the whole (3,2,+1) search walked from its seed has about a million
        # nodes, so a walk that went on past its budget would take seconds
        assert run_task(P321, seed_tree(P321), budget=budget) == ({}, nodes, True)

    def test_no_workers_refused(self):
        with pytest.raises(ValueError, match="worker count must be at least 1, got 0"):
            search(P222, jobs=0)

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

    @pytest.mark.parametrize("d, k, epsilon, diregular, max_results", [
        (2, 2, 3, True, 1), (2, 2, 3, True, 2), (1, 2, 1, False, 1)])
    def test_max_results_cuts_an_overshoot(self, d, k, epsilon, diregular, max_results):
        # the first diregular (2,2,+3) task with results adds 3 classes, so
        # the run stops after it with more classes than asked for; the
        # out-regular (1,2,+1) split finds 2 classes and leaves no task, so
        # that run ends without a stop.  Both keep the first max_results in
        # form order and are incomplete
        params = SearchParams(d, k, epsilon, diregular, max_results=max_results)
        tasks, stats = split_tasks(params)
        merged, nodes = dict(stats["results"]), stats["nodes"]
        for task in tasks:
            results, size, _ = run_task(params, task)
            nodes += size
            for data, g in results.items():
                merged.setdefault(data, g)
            if len(merged) >= max_results:
                break
        assert len(merged) > max_results
        out = search(params)
        assert [(r.form.data, r.digraph) for r in out.results] == sorted(merged.items())[:max_results]
        assert out.nodes_explored == nodes
        assert not out.complete
        assert search(params, jobs=2) == out

    def test_budget_of_the_whole_tree_completes(self):
        out = search(SearchParams(2, 2, 2, True, max_nodes=3724))
        assert out.complete
        assert out.nodes_explored == 3724
        assert len(out.results) == 2

    # diregular (2,2,+2) splits in 154 nodes into 30 tasks.  A budget is
    # either a number of nodes or one below, at or above a task boundary:
    # the split's total and the running total after each task, up to the
    # whole 3,724
    @pytest.mark.parametrize("jobs,after,offset", [
        *(pytest.param(jobs, None, 1500, id=str(jobs)) for jobs in (1, 2, 4)),
        pytest.param(1, None, 0, id="1-0"),
        *(pytest.param(1, after, offset, id=f"1-after{after}{offset:+d}")
          for after in range(31) for offset in (-1, 0, 1)),
        *(pytest.param(jobs, after, offset, id=f"{jobs}-after{after}{offset:+d}")
          for jobs in (2, 4) for after, offset in ((7, 0), (19, -1))),
    ])
    def test_budget_takes_whole_tasks_in_order(self, jobs, after, offset):
        # reference: the split, then each task's unbudgeted walk while it fits
        tasks, stats = split_tasks(P222)
        walks = [run_task(P222, task) for task in tasks]
        budget = offset if after is None else stats["nodes"] + sum(
            nodes for _, nodes, _ in walks[:after]) + offset
        merged, nodes, complete = dict(stats["results"]), stats["nodes"], True
        for results, size, _ in walks:
            if nodes + size > budget:
                complete = False
                break
            nodes += size
            for data, g in results.items():
                merged.setdefault(data, g)
        out = search(SearchParams(2, 2, 2, True, max_nodes=budget), jobs=jobs)
        assert [(r.form.data, r.digraph) for r in out.results] == sorted(merged.items())
        assert (out.nodes_explored, out.complete) == (nodes, complete)

    def test_a_deep_walk_does_not_recurse(self):
        # the first 1,000 nodes of out-regular (2,2,+200), order 207, land
        # arcs hundreds deep without a leaf; a walk that recursed once per
        # arc would overflow the 100 frames allowed above this test
        params = SearchParams(d=2, k=2, epsilon=200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            results, nodes, stopped = run_task(params, seed_tree(params), budget=1000)
        finally:
            sys.setrecursionlimit(limit)
        assert (results, nodes, stopped) == ({}, 1002, True)

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

    # the checkpoint key's "tasks" field: a change refuses every saved
    # checkpoint.  41 of the 483 (3,2,+1) tasks explore no node, so a split
    # that counted such a task in its parent instead would drop them
    @pytest.mark.parametrize("params,digest", [
        (P222, "1b806c6228060bffc1345850ce7dd0425dffed649c73f3c2aa39a8584dcc290c"),
        (SearchParams(2, 2, 3, True),
         "ed7dfaa4bd355285ddd11474fdbdea5df606fcbe4f9ae9f649463dcb4b63e6be"),
        (SearchParams(3, 2, 1, True),
         "e04553e8f2f1c3f3bbd604f7bdfc037e9552688f1248253d392191af95d2f5ab"),
        (SearchParams(2, 3, 2, True),
         "d6bc267516d5588f439a54726666bd20800c329d0b9867b06180926e76555079"),
    ], ids=["excess2", "excess3", "3,2,+1", "2,3,+2"])
    @pytest.mark.parametrize("pruning", ["full", "basic"])
    def test_task_list_sha256_pinned(self, params, digest, pruning):
        tasks, _ = split_tasks(params, pruning)
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
    """The engine audited at every node it counts and at every DFS frame it restores.

    Each frame's state is recorded when its first arc is tested, and
    every later test and every landing must find exactly that state: the
    frame restored all it changed for the children before, _check changed
    nothing, and neither did a _land that cut, which the audit asserts
    right after it returns.  in_full must hold exactly the vertices of
    in-degree d or more in diregular mode, and none in out-regular mode.
    A frame must then be v's frame as _frame builds it from the BFS
    k-balls, whether _frame built it or _dfs derived it from its parent,
    and the stored balls OR its pending sets must be those k-balls.
    _check's verdict must be the basic oracle's on the state with the arc
    added, and _land's the oracle's in the engine's own mode.  After a
    kept arc the stored balls OR the pending sets grown by what _check
    returned must be the k-balls, and after a filled row the stored balls
    alone.  After every kept arc, and whenever a frame opens, shut must
    hold for each vertex the number of full k-balls that miss it, by a
    full rescan, in full diregular mode, and zeros otherwise: decoded
    from its nested fields, with field epsilon empty.
    Inside _dfs each frame also lists its candidates when _next_open finds
    its vertex, one by one from the rows: the targets past v's last one up
    to one past the highest vertex in use, without v and, in diregular
    mode, without the vertices of in-degree d.  A candidate inside the BFS
    k-ball of a source within k-1 steps before v is barred: the engine
    counts it without testing it, so the audit judges it here, by the
    oracle on the state with that arc added.  A frame with no live
    candidate is listed too, though the engine never pushes it.  So is
    the child of a kept arc that leaves v's row open: the audit lists its
    candidates from the rows with the arc added, and when none is live
    the engine must count the child in v's frame and never land the arc,
    and otherwise land it before it tests anything else.  checked follows
    the walk and counts each barred candidate before the next tested one
    or when its frame ends, and each tested one, so it is the engine's
    node count whenever an arc lands and when the walk ends.  An arc lands
    only while the nodes at the last landed arc, or 0 before the first,
    are within the budget, and a walk that stops early stops right after
    an arc lands past it.
    """

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.pruning = pruning
        self.checked = 0
        self.opened = {}  # id of a frame -> (the frame, the state its first arc was tested on)
        self.walking = False
        # the open DFS frames, keyed by (v, slots of v decided): [(candidate, barred) not yet passed]
        self.listed = []
        self.due = None  # the kept arc that must land next
        self.counted = []  # (nodes before, candidates) of each child counted in its parent
        self.landed = []  # the nodes when each arc of the walk landed
        self.cuts = 0  # fills cut by the multiplicity cut

    def _fresh_balls(self):
        g = Digraph(self.n, [_members(m, self.n) for m in self.out_mask])
        return [sum(1 << x for x, t in bfs_distances(g, u).items() if t <= self.k)
                for u in range(self.n)]

    def _check_shut(self):
        counts = outlier_counts(self._fresh_balls(), self.n, self.moore)
        # field epsilon, the vertices counted more than epsilon times, is empty on a kept state
        assert self.shut >> self.params.epsilon * self.n == 0
        assert _counts(self.shut, self.n, self.params.epsilon) == (counts if self.mult_mode else [0] * self.n)

    def _check_in_full(self):
        full = sum(1 << w for w in range(self.n) if self.in_mask[w].bit_count() >= self.d)
        assert self.in_full == (full if self.params.diregular else 0)

    def _list(self, rows, v):
        """v's candidates in the partial with out-lists rows, each with whether it is barred."""
        g = Digraph(self.n, rows)
        union = 0
        for s in range(self.n):
            dist = bfs_distances(g, s)
            if dist.get(v, self.k) < self.k:
                union |= sum(1 << x for x, t in dist.items() if t <= self.k)
        used = max((max(u, *row) for u, row in enumerate(rows) if row), default=-1)
        hi = min(self.n - 1, max(used, v) + 1)
        todo = []
        for w in range(rows[v][-1] + 1 if rows[v] else 0, hi + 1):
            if w == v or self.params.diregular and len(g.in_lists[w]) >= self.d:
                continue
            barred = bool(union >> w & 1)
            if barred:
                partial = Digraph(self.n, [row + (w,) if u == v else row
                                           for u, row in enumerate(rows)])
                assert _oracle_cuts(partial, self.params, self.pruning)
            todo.append((w, barred))
        return todo

    def _next_open(self, v):
        v = super()._next_open(v)
        if self.walking and v is not None:
            assert self.split_at is None
            self._check_in_full()
            rows = [_members(m, self.n) for m in self.out_mask]
            self.listed.append(((v, self.out_mask[v].bit_count()), self._list(rows, v)))
        return v

    def _pass_barred(self, todo):
        """Count and drop the barred candidates at the front of a frame's list.

        Returns whether a candidate is left, which is then a live one.
        """
        while todo and todo[0][1]:
            del todo[0]
            self.checked += 1
        return bool(todo)

    def _check_grown(self, found, sets):
        """Assert that the stored balls, with sets[t] added to each source of found[t], are the k-balls."""
        grown = list(self.balls)
        for layer, extra in zip(found, sets):
            for s in range(self.n):
                if layer >> s & 1:
                    grown[s] |= extra
        assert grown == self._fresh_balls()

    def _check(self, v, w, frame):
        assert not (self.in_full | frame[2]) >> w & 1  # enter() and _dfs bar such a w
        if id(frame) not in self.opened:
            self._check_in_full()
            self._check_shut()
            stored, self.balls = self.balls, self._fresh_balls()
            try:
                rebuilt = self._frame(v)
            finally:
                self.balls = stored
            assert frame[:3] == rebuilt[:3]
            self._check_grown(frame[0], _fields(frame[3], self.n, self.k))
            self.opened[id(frame)] = frame, _state(self)
        state = self.opened[id(frame)][1]
        assert _state(self) == state
        if self.walking:
            assert self.due is None
            key = v, self.out_mask[v].bit_count()
            while self.listed[-1][0] != key:  # the frames above it have ended
                ended = self.listed.pop()[1]
                self._pass_barred(ended)
                assert not ended  # with no live candidate left out
            todo = self.listed[-1][1]
            self._pass_barred(todo)
            assert todo and todo[0] == (w, False)  # the next candidate, and a live one
            del todo[0]
            self.checked += 1
        ahead = super()._check(v, w, frame)
        assert _state(self) == state
        rows = list(self._digraph().out)
        rows[v] += (w,)
        assert bool(ahead) == (not _oracle_cuts(Digraph(self.n, rows), self.params, "basic"))
        if ahead and self.walking:
            self.due = v, w
            if len(rows[v]) < self.d:
                child = self._list(rows, v)
                if not any(not barred for _, barred in child):
                    # counted in this frame: w is kept, and the child's candidates are all cut
                    assert not _oracle_cuts(Digraph(self.n, rows), self.params, self.pruning)
                    self.listed.append(((v, len(rows[v])), child))
                    self.counted.append((self.checked, len(child)))
                    self.due = None
        return ahead

    def _land(self, v, w, ahead, frame):
        assert _state(self) == self.opened[id(frame)][1]
        if self.walking:
            assert self.due == (v, w)
            self.due = None
            assert self.budget is None or (self.landed[-1] if self.landed else 0) <= self.budget
        rows = list(self._digraph().out)
        rows[v] += (w,)
        kept = super()._land(v, w, ahead, frame)
        assert kept == (not _oracle_cuts(Digraph(self.n, rows), self.params, self.pruning))
        self.cuts += not kept
        if not kept:
            # the multiplicity cut leaves the state exactly as the frame recorded it
            assert _state(self) == self.opened[id(frame)][1]
        else:
            if self.out_mask[v].bit_count() < self.d:
                self._check_grown(frame[0], _fields(frame[3] | ahead, self.n, self.k))
            else:
                assert self.balls == self._fresh_balls()
            self._check_shut()
            if self.walking:
                assert self.checked == self.nodes
                self.landed.append(self.nodes)
        return kept

    def _dfs(self):
        before = _state(self)
        self.walking = True
        super()._dfs()
        self.walking = False
        assert self.due is None
        if _state(self) == before:
            # the walk ran to its end: past its last tested arc it ends the
            # frames left from the top, none with a live candidate
            while self.listed:
                assert not self._pass_barred(self.listed.pop()[1])
        else:
            # it returned at the top of its loop, right after an arc landed
            # past the budget, and leaves that arc and those below it landed
            assert self.budget is not None and self.landed
            assert self.nodes == self.landed[-1] > self.budget
        assert self.checked == self.nodes


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
        # every node the walk counts and every arc the start partial lands:
        # its verdict is the oracle's, the stored balls with the frame's
        # pending sets are the BFS k-balls, shut is a full rescan's, every
        # frame is the one _frame builds from the k-balls, and each frame's
        # restore gives the state back, so a walk the budget does not stop
        # leaves the balls it started with
        params, partial = case
        engine = _AuditedEngine(params, pruning, partial, budget=150)
        assume(engine.enter())  # the multiplicity cut may drop what basic kept
        initial = list(engine.balls)
        assert initial == engine._fresh_balls()
        engine._dfs()
        if engine.nodes <= 150:
            assert engine.balls == initial
        assert engine.checked == engine.nodes

    @given(geodetic_partials(), st.sampled_from(["basic", "full"]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_landing_an_arc_keeps_the_backward_layers(self, case, pruning, data):
        # what lets one _frame(v) serve every arc out of v: v is the layers'
        # depth 0, so no arc out of it that _check keeps moves them, whether
        # _land keeps it or cuts it, and only a kept arc is taken back
        params, partial = case
        engine = _Engine(params, pruning, partial, budget=None)
        assume(engine.enter())
        open_ = [v for v in range(engine.n) if engine.out_mask[v].bit_count() < params.d]
        assume(open_)
        v = data.draw(st.sampled_from(open_))
        verdicts = set()
        for w in range(engine.n):
            if engine.out_mask[v] >> w & 1:
                continue
            before = layers(engine.in_mask, v, params.k - 1)
            saved = engine.balls, engine.shut, engine.max_used, engine.in_full
            frame = engine._frame(v)
            if (engine.in_full | frame[2]) >> w & 1:
                verdicts.add(False)  # barred before _check, as enter() and _dfs do
                continue
            ahead = engine._check(v, w, frame)
            verdicts.add(bool(ahead))
            if ahead:
                kept = engine._land(v, w, ahead, frame)
                assert layers(engine.in_mask, v, params.k - 1) == before
                if not kept:
                    continue
                engine.out_mask[v] ^= 1 << w
                engine.in_mask[w] ^= 1 << v
                engine.balls, engine.shut, engine.max_used, engine.in_full = saved
        assume(verdicts == {False, True})

    @given(geodetic_partials(), st.sampled_from(["basic", "full"]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_checking_an_arc_changes_nothing(self, case, pruning, data):
        # _check on every live candidate of an open vertex's frame leaves
        # the state alone and gives the oracle's verdict on the partial with
        # that arc; the multiplicity cut is _land's, so the verdict is basic
        # pruning's.  A barred candidate, one in U, is enter()'s to refuse,
        # and TestPrune judges that verdict
        params, partial = case
        engine = _Engine(params, pruning, partial, budget=None)
        assume(engine.enter())
        open_ = [v for v in range(engine.n) if engine.out_mask[v].bit_count() < params.d]
        assume(open_)
        v = data.draw(st.sampled_from(open_))
        frame = engine._frame(v)
        rows = list(engine._digraph().out)
        hi = min(engine.n - 1, max(engine.max_used, v) + 1)
        before = _state(engine)
        for w in range(engine.out_mask[v].bit_length(), hi + 1):
            if w == v or (engine.in_full | frame[2]) >> w & 1:
                continue
            ahead = engine._check(v, w, frame)
            assert _state(engine) == before
            partial = Digraph(engine.n, [row + (w,) if u == v else row
                                         for u, row in enumerate(rows)])
            assert bool(ahead) == (not _oracle_cuts(partial, params, "basic"))

    @given(geodetic_partials(), st.sampled_from(["basic", "full"]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_packed_fields_are_the_bfs_sets(self, case, pruning, data):
        # field t of a fresh frame's U is the union of the BFS k-balls of
        # the sources t steps before v, and field t of what _check keeps is
        # w's BFS ball of radius k-1-t; (2,3,+2) has three fields
        params, partial = case
        engine = _Engine(params, pruning, partial, budget=None)
        assume(engine.enter())
        n, k = engine.n, params.k
        open_ = [v for v in range(n) if engine.out_mask[v].bit_count() < params.d]
        assume(open_)
        v = data.draw(st.sampled_from(open_))
        g = engine._digraph()
        dist = [bfs_distances(g, s) for s in range(n)]

        def ball(s, r):
            return sum(1 << x for x, t in dist[s].items() if t <= r)

        sets = [0] * (k + 1)  # one field past the last, which must stay empty
        covered = 0  # U, the union of every field
        for s in range(n):
            if dist[s].get(v, k) < k:
                sets[dist[s][v]] |= ball(s, k)
                covered |= ball(s, k)
        frame = engine._frame(v)
        _, unions, union, pending = frame
        assert _fields(unions, n, k + 1) == sets
        assert (union, pending) == (covered, 0)
        for w in range(engine.out_mask[v].bit_length(), n):
            if w == v or (engine.in_full | union) >> w & 1:
                continue
            ahead = engine._check(v, w, frame)
            if ahead:
                assert _fields(ahead, n, k + 1) == [ball(w, k - 1 - t) for t in range(k)] + [0]

    @given(geodetic_partials(cases=PARTIAL_CASES + ((2, 2, 4, True), (2, 2, 5, True))),
           st.sampled_from(["basic", "full"]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_packed_counts_match_a_list_of_counts(self, case, pruning, data):
        # random arcs that _check keeps, out of the lowest open vertex as
        # the walk fills rows, each committed by _grow as enter() commits
        # it, against plain per-vertex counts grown ball by ball: _grow
        # cuts exactly when some count passes epsilon, and otherwise its
        # shut decodes to the counts, which stay zero unless the cut is on.
        # epsilon 4 and 5 on (2,2) are where fills cut most often
        params, partial = case
        engine = _Engine(params, pruning, partial, budget=None)
        assume(engine.enter())
        n, eps = engine.n, params.epsilon
        for _ in range(2 * n):
            counts = outlier_counts(engine.balls, n, engine.moore) if engine.mult_mode else [0] * n
            assert _counts(engine.shut, n, eps) == counts
            open_ = [v for v in range(n) if engine.out_mask[v].bit_count() < params.d]
            if not open_:
                break
            v = open_[0]
            frame = engine._frame(v)
            found = frame[0]
            kept = [w for w in range(engine.out_mask[v].bit_length(), n)
                    if w != v and not (engine.in_full | frame[2]) >> w & 1 and engine._check(v, w, frame)]
            if not kept:
                break
            w = data.draw(st.sampled_from(kept))
            ahead = engine._check(v, w, frame)
            balls, cut = list(engine.balls), False
            for t, layer in enumerate(found):
                for s in _members(layer, n):
                    balls[s] |= ahead >> t * n & (1 << n) - 1
                    if engine.mult_mode and not cut and balls[s].bit_count() == engine.moore:
                        for u in range(n):
                            counts[u] += not balls[s] >> u & 1
                        cut = max(counts) > eps
            grown = engine._grow(found, ahead)
            assert (grown is None) == cut
            if cut:
                continue
            assert grown[0] == balls
            assert _counts(grown[1], n, eps) == counts
            assert engine._land(v, w, ahead, frame)
            engine.balls, engine.shut = grown

    def test_whole_search_audited(self):
        engine = _AuditedEngine(P222, "full", seed_tree(P222), budget=None)
        engine.run()
        assert engine.nodes == engine.checked == 3724
        assert len(engine.results) == 2
        assert engine.balls == engine._fresh_balls()

    # whole tasks of a split after the given number of slots, unbudgeted:
    # three backward layers per frame on (2,3,+2), rows with two derived
    # frames on (3,2,+1) (neither cuts a fill on multiplicity), and fills
    # cut by the multiplicity cut at epsilon = 4 on (2,2,+4), whose task
    # emits 68 leaves in 25 classes, at epsilon = 5 on (2,2,+5) and at
    # epsilon = 2 on (3,2,+2); every task of the search's own split of
    # (2,2,+5) has over 25,000 nodes, so its task comes from a deeper one
    @pytest.mark.parametrize("params,slots,index,nodes,classes,cuts", [
        pytest.param(SearchParams(2, 3, 2, True), 4, 165, 5239, 0, 0, id="2,3,+2-165"),
        pytest.param(P321, 4, 151, 5972, 0, 0, id="3,2,+1-151"),
        pytest.param(SearchParams(2, 2, 4, True), 4, 24, 5426, 25, 431, id="2,2,+4-24"),
        pytest.param(SearchParams(2, 2, 5, True), 6, 14, 3808, 35, 489, id="2,2,+5-6-14"),
        pytest.param(SearchParams(3, 2, 2, True), 4, 522, 5631, 0, 12, id="3,2,+2-522"),
    ])
    def test_whole_task_audited(self, params, slots, index, nodes, classes, cuts):
        split = _Engine(params, "full", seed_tree(params), budget=None)
        split.run(split_at=slots)
        engine = _AuditedEngine(params, "full", split.tasks[index], budget=None)
        engine.run()
        assert engine.nodes == engine.checked == nodes
        assert len(engine.results) == classes
        assert engine.cuts == cuts


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
    """The engine with the twin lemma checked on every arc that _check keeps.

    The partial with that arc added is k-geodetic, whether the arc then
    lands or its child is counted without landing it.
    """

    def __init__(self, params, pruning, start, budget):
        super().__init__(params, pruning, start, budget)
        self.kept = self.pairs = 0

    def _audit(self, v, w):
        g = Digraph(self.n, [row + (w,) if u == v else row for u, row in enumerate(self._digraph().out)])
        failed, pairs = _twin_violations(g, self.k)
        assert failed == [], (g.out, failed)
        self.kept += 1
        self.pairs += pairs

    def _check(self, v, w, frame):
        ahead = super()._check(v, w, frame)
        if ahead:
            self._audit(v, w)
        return ahead


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
