import hashlib
import io
import json
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import geodex
from geodex import Digraph, canonical_form, catalog_a, catalog_b, read_digraph, write_digraph
from geodex.catalog import MAX_ORDER
from geodex.cli import run
from oracles import shuffled
from strategies import two_out_digraph


_TOO_DEEP = ("error: depth 10000000000 is too large for degree 2: "
             "the Moore bound may exceed 2**24 bits\n")


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def a_path(tmp_path, cat_a):
    p = tmp_path / "A.dg"
    p.write_text(write_digraph(cat_a))
    return str(p)


@pytest.fixture()
def b_path(tmp_path, cat_b):
    p = tmp_path / "B.dg"
    p.write_text(write_digraph(cat_b))
    return str(p)


@pytest.fixture()
def latin1_path(tmp_path):
    # byte 0xff starts no UTF-8 sequence
    p = tmp_path / "latin1.dg"
    p.write_bytes(b"\xffn 1\n")
    return str(p)


def not_utf8(path):
    """The exit status, output and error line for a file whose first byte is 0xff."""
    return 2, "", (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


class TestMoore:
    def test_prints_bound(self):
        code, out, _ = invoke("moore", "2", "2")
        assert code == 0
        assert out == "7\n"

    def test_larger(self):
        assert invoke("moore", "2", "3")[1] == "15\n"

    def test_bad_degree_is_usage_error(self):
        code, _, err = invoke("moore", "0", "2")
        assert code == 2
        assert err

    def test_non_integer_is_usage_error(self):
        assert invoke("moore", "x", "2")[0] == 2

    def test_bound_too_long_to_print_is_refused(self):
        # 2**1000001 - 1 has about 301,000 digits, past Python's 4,300 for str()
        assert invoke("moore", "2", "1000000") == (
            2, "", "error: the Moore bound ~2**1000000 has too many decimal digits to print\n")

    def test_bound_of_4215_digits_prints_in_full(self):
        assert invoke("moore", "2", "14000") == (0, f"{2 ** 14001 - 1}\n", "")


class TestVerify:
    def test_catalog_a_passes(self, a_path):
        code, out, _ = invoke(
            "verify", a_path, "--d", "2", "--k", "2", "--excess", "2", "--diregular"
        )
        assert code == 0
        assert "verdict PASS" in out
        assert "outlier-of 2 2 2 2 2 2 2 2 2" in out

    def test_wrong_excess_fails(self, a_path):
        code, out, _ = invoke(
            "verify", a_path, "--d", "2", "--k", "2", "--excess", "1"
        )
        assert code == 1
        assert "verdict FAIL" in out
        assert "order 9 expected 8 FAIL" in out

    def test_diregular_line_reflects_request(self, a_path):
        _, loose, _ = invoke("verify", a_path, "--d", "2", "--k", "2", "--excess", "2")
        assert "diregular not-requested" in loose

    def test_geodetic_failure_prints_witness(self, tmp_path):
        # 0 -> 1 -> 0 closed walk; order matches M(1,2)+0 so only geodecity fails
        p = tmp_path / "g.dg"
        p.write_text("n 3\n0: 1\n1: 0\n2: 1\n")
        code, out, _ = invoke("verify", str(p), "--d", "1", "--k", "2", "--excess", "0")
        assert code == 1
        assert "geodetic FAIL" in out

    def test_missing_file_is_usage_error(self):
        code, _, err = invoke("verify", "/nonexistent.dg", "--d", "2", "--k", "2",
                              "--excess", "2")
        assert code == 2
        assert err

    def test_file_not_utf8_is_named(self, latin1_path):
        assert (invoke("verify", latin1_path, "--d", "2", "--k", "2", "--excess", "2")
                == not_utf8(latin1_path))


class TestCatalog:
    def test_a_round_trips(self, cat_a):
        code, out, _ = invoke("catalog", "A")
        assert code == 0
        assert read_digraph(out) == cat_a

    def test_b_round_trips(self, cat_b):
        assert read_digraph(invoke("catalog", "B")[1]) == cat_b

    def test_unknown_id(self):
        assert invoke("catalog", "C")[0] == 2


class TestCanon:
    def test_matches_library_hex(self, a_path, cat_a):
        code, out, _ = invoke("canon", a_path)
        assert code == 0
        assert out.strip() == canonical_form(cat_a).hex()

    def test_relabelling_same_hex(self, tmp_path, cat_a):
        perm = [4, 0, 7, 2, 8, 1, 5, 6, 3]
        out_lists = [()] * 9
        for v in range(9):
            out_lists[perm[v]] = tuple(perm[w] for w in cat_a.out[v])
        from geodex import Digraph

        p = tmp_path / "shuffled.dg"
        p.write_text(write_digraph(Digraph(9, out_lists)))
        # the same file as some editors save it, with a UTF-8 byte-order mark
        bom = tmp_path / "bom.dg"
        bom.write_text("\ufeff" + p.read_text(), encoding="utf-8")
        assert invoke("canon", str(bom)) == invoke("canon", str(p))
        assert invoke("canon", str(p))[1].strip() == canonical_form(cat_a).hex()

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.dg"
        p.write_text("not a digraph\n")
        assert invoke("canon", str(p))[0] == 2

    def test_file_not_utf8_is_named(self, latin1_path):
        assert invoke("canon", latin1_path) == not_utf8(latin1_path)

    def test_empty_digraph(self, tmp_path):
        p = tmp_path / "empty.dg"
        p.write_text("n 0\n")
        code, out, err = invoke("canon", str(p))
        assert (code, out) == (2, "")
        assert err == "error: canonical form requires at least one vertex\n"

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing header 'n <order>'"),
        ("# no header\n", "line 1: missing header 'n <order>'"),
        ("n -1\n", "line 1: order must be non-negative, got -1"),
        ("n 2\nx: 1\n", "line 2: vertex index is not an integer: 'x'"),
        ("n 1_0\n", "line 1: order is not an integer: '1_0'"),
    ], ids=["empty", "comment-only", "negative-order", "non-integer-vertex", "underscore-order"])
    def test_input_error_is_one_line(self, tmp_path, text, message):
        p = tmp_path / "bad.dg"
        p.write_text(text)
        assert invoke("canon", str(p)) == (2, "", f"error: {p}: {message}\n")

    def test_long_number_is_one_short_line(self, tmp_path):
        # an order of 5,000 digits, past what int() reads, is out of range
        p = tmp_path / "long.dg"
        p.write_text("n " + "9" * 5000 + "\n")
        message = f"line 1: order {'9' * 40}... (5000 characters) exceeds the limit of {MAX_ORDER}"
        assert invoke("canon", str(p)) == (2, "", f"error: {p}: {message}\n")

    def test_walk_deeper_than_the_recursion_limit(self, tmp_path):
        # the edgeless digraph of order 1,100 has one cell that the walk
        # individualises 1,099 times in a row, one recursion each
        p = tmp_path / "edgeless.dg"
        p.write_text("n 1100\n")
        message = ("error: canonical labelling of order 1100 needs a deeper walk than "
                   f"Python's recursion limit of {sys.getrecursionlimit()} allows\n")
        assert invoke("canon", str(p)) == (2, "", message)
        assert invoke("iso", str(p), str(p)) == (2, "", message)

    def test_order_above_limit(self, tmp_path):
        p = tmp_path / "huge.dg"
        p.write_text(f"n {MAX_ORDER + 1}\n")
        code, out, err = invoke("canon", str(p))
        assert (code, out) == (2, "")
        assert f"order {MAX_ORDER + 1} exceeds the limit of {MAX_ORDER}" in err


class TestIso:
    def test_isomorphic_exit_zero(self, a_path):
        code, out, _ = invoke("iso", a_path, a_path)
        assert code == 0
        assert out.strip() == "isomorphic"

    def test_non_isomorphic_exit_one(self, a_path, b_path):
        code, out, _ = invoke("iso", a_path, b_path)
        assert code == 1
        assert out.strip() == "non-isomorphic"

    def test_second_file_not_utf8_is_named(self, a_path, latin1_path):
        assert invoke("iso", a_path, latin1_path) == not_utf8(latin1_path)

    def test_relabelled_copy_at_the_order_limit(self, tmp_path):
        g = two_out_digraph(MAX_ORDER, seed=MAX_ORDER)
        a, b = tmp_path / "a.dg", tmp_path / "b.dg"
        a.write_text(write_digraph(g))
        b.write_text(write_digraph(shuffled(random.Random(0), g)))
        assert invoke("iso", str(a), str(b)) == (0, "isomorphic\n", "")


class TestCensus:
    def test_catalog_b_report(self, b_path):
        code, out, _ = invoke("census", b_path)
        assert code == 0
        assert "triangle 0 2 5" in out
        assert "per-vertex 1 1 1 1 2 2 1 1 2" in out
        assert "pair 0 3 common 1 good" in out
        assert "pair 1 8 common 2 -" in out

    def test_catalog_a_flags_bad_pairs(self, a_path):
        out = invoke("census", a_path)[1]
        assert "pair 0 7 common 1 bad" in out
        assert "pair 1 6 common 1 bad" in out
        assert "pair 0 5 common 1 good" in out

    def test_emit_writes_json(self, b_path, tmp_path):
        dump = tmp_path / "census.json"
        invoke("census", b_path, "--emit", str(dump))
        data = json.loads(dump.read_text())
        assert len(data["triangles"]) == 4
        assert data["per_vertex"] == [1, 1, 1, 1, 2, 2, 1, 1, 2]
        assert {(p["u"], p["v"]) for p in data["pairs"] if p["class"] == "-"} == {
            (1, 8), (2, 4), (5, 7)
        }

    def test_classification_skipped_off_spec(self, tmp_path):
        p = tmp_path / "c3.dg"
        p.write_text("n 3\n0: 1\n1: 2\n2: 0\n")
        code, out, _ = invoke("census", str(p))
        assert code == 0
        assert "triangle 0 1 2" in out


class TestSearch:
    def test_small_complete_search(self):
        code, out, _ = invoke(
            "search", "--d", "1", "--k", "2", "--excess", "0", "--diregular"
        )
        assert code == 0
        assert "results=1 nodes=1 complete=true" in out
        block = out.split("\n\n")[0] + "\n"
        assert read_digraph(block).n == 3

    def test_main_classification(self, cat_a, cat_b):
        code, out, _ = invoke(
            "search", "--d", "2", "--k", "2", "--excess", "2", "--diregular"
        )
        assert code == 0
        assert "results=2 nodes=3724 complete=true" in out
        blocks = [b for b in out.split("\n\n") if b.startswith("n ")]
        found = {canonical_form(read_digraph(b + "\n")) for b in blocks}
        assert found == {canonical_form(cat_a), canonical_form(cat_b)}

    def test_limit_truncates(self):
        code, out, _ = invoke(
            "search", "--d", "2", "--k", "2", "--excess", "2", "--diregular",
            "--limit", "1"
        )
        assert code == 1
        assert "results=1" in out and "complete=false" in out

    def test_budget_exhaustion(self):
        code, out, _ = invoke(
            "search", "--d", "2", "--k", "2", "--excess", "2", "--diregular",
            "--budget", "100"
        )
        assert code == 1
        assert "complete=false" in out

    def test_no_workers_refused(self):
        assert invoke("search", "--d", "2", "--k", "2", "--excess", "2", "--diregular",
                      "--jobs", "0") == (2, "", "error: worker count must be at least 1, got 0\n")

    def test_jobs_flag_matches_serial(self):
        serial = invoke("search", "--d", "2", "--k", "2", "--excess", "2",
                        "--diregular")[1]
        parallel = invoke("search", "--d", "2", "--k", "2", "--excess", "2",
                          "--diregular", "--jobs", "2")[1]
        assert serial == parallel

    def test_long_run_gate(self):
        code, _, err = invoke(
            "search", "--d", "2", "--k", "3", "--excess", "2", "--diregular"
        )
        assert code == 2
        assert "--long-run" in err

    def test_order_above_limit_refused_at_once(self):
        # order 2**41 + 1 passes the --long-run gate but not the order limit
        r = subprocess.run([sys.executable, "-m", "geodex", "search", "--d", "2", "--k", "40",
                            "--excess", "2", "--diregular", "--long-run"],
                           capture_output=True, text=True, timeout=10)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: order {2 ** 41 + 1} exceeds the limit of {MAX_ORDER}\n"

    def test_emit_file(self, tmp_path):
        target = tmp_path / "results.dg"
        invoke("search", "--d", "2", "--k", "1", "--excess", "0", "--diregular",
               "--emit", str(target))
        assert read_digraph(target.read_text()).n == 3


class TestSearchCheckpoint:
    def test_budgeted_run_then_resume(self, tmp_path):
        cp = tmp_path / "cp.json"
        argv = ["search", "--d", "2", "--k", "2", "--excess", "2", "--diregular",
                "--checkpoint", str(cp)]
        code1, out1, err1 = invoke(*argv, "--budget", "1500")
        assert code1 == 1
        assert "complete=false" in out1
        saved = json.loads(cp.read_text())
        assert saved["done"]

        code2, out2, err2 = invoke(*argv)
        assert code2 == 0
        assert "results=2 nodes=3724 complete=true" in out2
        assert "resuming" in err2

    def test_finished_checkpoint_replays(self, tmp_path):
        cp = tmp_path / "cp.json"
        argv = ["search", "--d", "2", "--k", "2", "--excess", "2", "--diregular",
                "--checkpoint", str(cp)]
        first = invoke(*argv)
        again = invoke(*argv)
        assert first[0] == again[0] == 0
        assert first[1] == again[1]

    def test_rerun_of_a_finished_checkpoint_writes_it_once(self, tmp_path, monkeypatch):
        import importlib

        search_mod = importlib.import_module("geodex.search")
        cp = tmp_path / "cp.json"
        assert invoke(*SEARCH_222, "--checkpoint", str(cp))[0] == 0
        before = cp.read_bytes()
        real_replace, writes = search_mod.os.replace, []

        def counting(src, dst):
            writes.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(search_mod.os, "replace", counting)
        assert invoke(*SEARCH_222, "--checkpoint", str(cp))[0] == 0
        assert writes == [str(cp)]  # once read, never again: no task changed it
        assert cp.read_bytes() == before

    def test_finished_checkpoint_bytes_pinned(self, tmp_path):
        # a stored checkpoint is read back by later versions, so its bytes stay put
        cp = tmp_path / "cp.json"
        assert invoke("search", "--d", "2", "--k", "2", "--excess", "3", "--diregular",
                      "--checkpoint", str(cp))[0] == 0
        data = cp.read_bytes()
        assert len(data) == 16125
        assert hashlib.sha256(data).hexdigest() == (
            "0d22364586ec9333038fe7213684378fdb156498f09802191901a56800cfa192")

    def test_a_resumed_file_is_the_json_of_what_it_holds(self, tmp_path):
        # each record is encoded once and the file joined from the encoded
        # parts, which must read as json.dumps of the whole, after a fresh
        # start and its saves and after resumed slices
        cp = tmp_path / "cp.json"
        assert invoke(*SEARCH_222, "--budget", "1500", "--checkpoint", str(cp))[0] == 1
        first = cp.read_text()
        assert first == json.dumps(json.loads(first)) + "\n"
        assert len(_slices(cp)) > 1
        text = cp.read_text()
        assert len(json.loads(text)["done"]) > len(json.loads(first)["done"])
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_mismatched_params_rejected(self, tmp_path):
        cp = tmp_path / "cp.json"
        invoke("search", "--d", "2", "--k", "1", "--excess", "0", "--diregular",
               "--checkpoint", str(cp))
        code, _, err = invoke("search", "--d", "2", "--k", "2", "--excess", "2",
                              "--diregular", "--checkpoint", str(cp))
        assert code == 2
        assert "checkpoint" in err

    def test_stalled_run_says_so_and_leaves_the_file(self, tmp_path):
        # task 33 of this search needs more nodes than --budget 3000 leaves
        # after the split, so from some rerun on no task can be saved
        cp = tmp_path / "cp.json"
        argv = ["search", "--d", "2", "--k", "2", "--excess", "3", "--diregular",
                "--budget", "3000", "--checkpoint", str(cp)]
        for _ in range(20):
            before = cp.read_bytes() if cp.exists() else None
            code, out, err = invoke(*argv)
            assert code == 1
            stalled = "cannot progress" in err
            assert stalled == (cp.read_bytes() == before)
            if stalled:
                break
        assert stalled
        assert err.splitlines()[-2:] == [
            f"progress tasks={len(json.loads(cp.read_text())['done'])}/38 budget exhausted",
            "stalled: task 33 needs more than the 2837 nodes left "
            "after the split; rerunning with this budget cannot progress"]
        assert out.endswith("results=7 nodes=29206 complete=false\n")
        assert invoke(*argv) == (code, out, err)
        assert cp.read_bytes() == before


SEARCH_222 = ["search", "--d", "2", "--k", "2", "--excess", "2", "--diregular"]


def _slices(cp, *extra):
    """Rerun a 1500-node checkpointed search until it completes; returns the stdouts."""
    outs = []
    while not outs or "complete=false" in outs[-1]:
        code, out, _ = invoke(*SEARCH_222, "--budget", "1500", "--checkpoint", str(cp), *extra)
        assert code in (0, 1) and len(outs) < 10
        outs.append(out)
    return outs


def _edited(change):
    """A damage that parses the checkpoint, applies change to it and writes it back."""
    def damage(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return damage


class TestCheckpointBudgetAndJobs:
    @pytest.mark.parametrize("option,summary", [
        (["--budget", "3724"], "results=2 nodes=3724 complete=true"),
        (["--limit", "1"], "results=1 nodes=223 complete=false"),
    ])
    def test_same_output_with_and_without_checkpoint(self, tmp_path, option, summary):
        plain = invoke(*SEARCH_222, *option)
        saved = invoke(*SEARCH_222, *option, "--checkpoint", str(tmp_path / "cp.json"))
        assert plain[:2] == saved[:2]
        assert plain[1].endswith(summary + "\n")

    def test_jobs_with_checkpoint_match_serial_slices(self, tmp_path, monkeypatch):
        import concurrent.futures
        import os

        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        serial = _slices(tmp_path / "serial.json")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        # the pool never outgrows the cores this process may use
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parallel = _slices(tmp_path / "parallel.json", "--jobs", "2")
        assert len(serial) > 1
        assert parallel == serial
        assert pools and set(pools) == {2}
        assert (tmp_path / "parallel.json").read_bytes() == (tmp_path / "serial.json").read_bytes()

    @pytest.mark.parametrize("field,value", [("tasks", "0" * 64), ("version", 1)])
    def test_stale_key_refused(self, tmp_path, field, value):
        cp = tmp_path / "cp.json"
        assert invoke(*SEARCH_222, "--checkpoint", str(cp))[0] == 0
        doc = json.loads(cp.read_text())
        doc["key"][field] = value
        cp.write_text(json.dumps(doc))
        code, out, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert code == 2 and out == ""
        assert err.startswith(f"error: checkpoint {cp}: ")
        assert json.loads(cp.read_text()) == doc


def _injected(g, form):
    """A damage that records g under form as task 0's only result."""
    return _edited(lambda doc: doc["done"]["0"].update(results={form.hex(): write_digraph(g)}))


# i -> i+1, i+2 (mod 9): 2-diregular of order 9, but 0->1->2 and 0->2 meet
_CIRCULANT = Digraph(9, [((i + 1) % 9, (i + 2) % 9) for i in range(9)])


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("damage", [
        lambda text: json.dumps([json.loads(text)]),
        lambda text: text[: len(text) // 2],
        _edited(lambda doc: doc["done"]["0"].pop("nodes")),
        _edited(lambda doc: doc["done"].update({"30": {"nodes": 0, "results": {}}})),
        _edited(lambda doc: doc["done"]["0"].update(results={"not-hex": "n 9\n"})),
        _injected(Digraph(1, [()]), b"\0"),
        _injected(catalog_a().digraph, canonical_form(catalog_b().digraph).data),
        _injected(_CIRCULANT, canonical_form(_CIRCULANT).data),
        # int() refuses more than 4,300 digits; a key is looked up, never converted
        _edited(lambda doc: doc["done"].update({"9" * 5000: {"nodes": 0, "results": {}}})),
        _edited(lambda doc: doc["done"].update({"9" * 101: {"nodes": 0, "results": {}}})),
    ], ids=["json-list", "truncated", "record-without-nodes", "index-out-of-range",
            "non-hex-form", "order-1-result", "class-under-wrong-form", "non-geodetic-result",
            "index-of-5000-digits", "index-of-101-digits"])
    def test_exits_2_before_any_task_runs(self, tmp_path, damage):
        cp = tmp_path / "cp.json"
        assert invoke(*SEARCH_222, "--budget", "1500", "--checkpoint", str(cp))[0] == 1
        text = damage(cp.read_text())
        cp.write_text(text)
        code, out, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert code == 2 and out == ""
        assert err.startswith(f"error: checkpoint {cp}: ") and err.count("\n") == 1
        assert len(err) < len(str(cp)) + 200  # a long key is cut short
        assert cp.read_text() == text

    def test_a_long_task_index_is_shown_cut_short(self, tmp_path):
        cp = tmp_path / "cp.json"
        invoke(*SEARCH_222, "--budget", "1500", "--checkpoint", str(cp))
        cp.write_text(_edited(lambda doc: doc["done"].update({"9" * 5000: {}}))(cp.read_text()))
        code, _, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert (code, err) == (2, f"error: checkpoint {cp}: task index '{'9' * 40}'... "
                                  "(5000 characters) is not in 0..29\n")


class TestWriteFailures:
    """A path that cannot be written exits 2 with one error line."""

    def test_census_emit_to_missing_directory(self, b_path, tmp_path):
        target = tmp_path / "missing" / "census.json"
        code, out, err = invoke("census", b_path, "--emit", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_search_emit_fails_before_the_search(self, tmp_path, monkeypatch, where):
        import geodex.cli

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(geodex.cli, "search", no_search)
        target = tmp_path / "missing" / "out.dg" if where == "missing-directory" else tmp_path
        code, out, err = invoke(*SEARCH_222, "--emit", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra,message", [
        pytest.param(["--jobs", "0"], "worker count must be at least 1", id="no-workers"),
        pytest.param(["--k", "5000", "--d", "1", "--excess", "0"],
                     "order 5001 exceeds the limit", id="order-over-the-limit"),
        pytest.param(["--checkpoint", "{cp}"], "checkpoint {cp}: not a checkpoint file",
                     id="not-a-checkpoint"),
    ])
    def test_search_emit_file_removed_when_the_search_fails(self, tmp_path, extra, message):
        # each error comes after --emit has opened its file, which this run created
        target, cp = tmp_path / "out.dg", tmp_path / "cp.json"
        cp.write_text("[]\n")
        extra = [arg.format(cp=cp) for arg in extra]
        code, out, err = invoke(*SEARCH_222, *extra, "--emit", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message.format(cp=cp)}") and err.count("\n") == 1
        assert not target.exists()

    def test_search_emit_file_kept_when_the_search_fails(self, tmp_path):
        target, cp = tmp_path / "out.dg", tmp_path / "cp.json"
        target.write_text("n 1\n")
        cp.write_text("not json\n")
        code, _, err = invoke(*SEARCH_222, "--emit", str(target), "--checkpoint", str(cp))
        assert code == 2 and err.startswith(f"error: checkpoint {cp}: ")
        assert target.read_text() == "n 1\n"

    def test_search_emit_replaces_an_existing_file(self, tmp_path):
        target = tmp_path / "out.dg"
        target.write_text("n 1\n" * 100)
        invoke("search", "--d", "2", "--k", "1", "--excess", "0", "--diregular",
               "--emit", str(target))
        assert target.read_text() == "n 3\n0: 1 2\n1: 0 2\n2: 0 1\n"

    def test_search_checkpoint_in_missing_directory_fails_before_any_task(self, tmp_path,
                                                                           monkeypatch):
        import importlib

        def no_task(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(importlib.import_module("geodex.search"), "run_task", no_task)
        cp = tmp_path / "missing" / "cp.json"
        code, out, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: checkpoint {cp}: cannot write it: ")
        assert err.count("\n") == 1

    def test_existing_checkpoint_that_cannot_be_written_fails_before_any_task(self, tmp_path,
                                                                              monkeypatch):
        # root ignores file modes, so the write fails where the file is replaced
        import importlib

        search_mod = importlib.import_module("geodex.search")
        cp = tmp_path / "cp.json"
        assert invoke(*SEARCH_222, "--budget", "1500", "--checkpoint", str(cp))[0] == 1
        before = cp.read_bytes()

        def no_task(*args, **kwargs):
            raise AssertionError("a task ran")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(search_mod, "run_task", no_task)
        monkeypatch.setattr(search_mod.os, "replace", refuse)
        code, out, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: checkpoint {cp}: cannot write it: ")
        assert err.count("\n") == 1
        assert cp.read_bytes() == before
        assert not (tmp_path / "cp.json.tmp").exists()

    def test_checkpoint_write_failing_mid_run_exits_2(self, tmp_path, monkeypatch):
        import importlib

        search_mod = importlib.import_module("geodex.search")
        real_replace = search_mod.os.replace
        writes = []

        def fail_after_two(src, dst):
            writes.append(dst)
            if len(writes) > 2:
                raise OSError(28, "No space left on device", dst)
            real_replace(src, dst)

        monkeypatch.setattr(search_mod.os, "replace", fail_after_two)
        cp = tmp_path / "cp.json"
        code, out, err = invoke(*SEARCH_222, "--checkpoint", str(cp))
        assert (code, out) == (2, "")
        assert len(writes) == 3  # the fresh file, task 0, then the failed task 1
        assert err.splitlines()[-1].startswith(f"error: checkpoint {cp}: cannot write it: ")
        assert "Traceback" not in err
        assert len(json.loads(cp.read_text())["done"]) == 1
        assert not (tmp_path / "cp.json.tmp").exists()

    def test_fresh_checkpoint_is_written_before_any_task(self, tmp_path):
        cp = tmp_path / "cp.json"
        code, out, _ = invoke(*SEARCH_222, "--budget", "0", "--checkpoint", str(cp))
        assert code == 1 and "complete=false" in out
        assert json.loads(cp.read_text())["done"] == {}


class TestCayleyA4:
    def test_witnesses(self):
        code, out, _ = invoke("cayley-a4", "--k", "2", "--excess", "5")
        assert code == 0
        assert "witnesses=24" in out
        assert out.count("witness ") == 24

    def test_no_witnesses_exit_one(self):
        code, out, _ = invoke("cayley-a4", "--k", "3", "--excess", "5")
        assert code == 1
        assert "witnesses=0" in out


class TestUsage:
    def test_no_arguments(self):
        assert invoke()[0] == 2

    def test_unknown_subcommand(self):
        assert invoke("frobnicate")[0] == 2

    def test_unknown_flag(self):
        assert invoke("moore", "2", "2", "--frob")[0] == 2

    def test_a_usage_error_goes_to_the_given_err(self, capsys):
        code, out, err = invoke("moore", "x", "2")
        assert (code, out) == (2, "")
        assert err.startswith("usage: geodex moore")
        assert "invalid int value: 'x'" in err
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_the_given_out(self, capsys):
        code, out, err = invoke("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: geodex")
        assert capsys.readouterr() == ("", "")


class TestProcessLevel:
    def test_canon_hex_stable_across_processes(self, a_path):
        script = (
            "from geodex.cli import run; import sys;"
            f"sys.exit(run(['canon', {a_path!r}]))"
        )
        runs = [
            subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_edgeless_order_12_canon_and_iso_are_fast(self, tmp_path):
        # the individualisation tree has 12! leaves; automorphism pruning
        # walks about 12 paths
        a, b = tmp_path / "a.dg", tmp_path / "b.dg"
        a.write_text("n 12\n")
        b.write_text("# twelve isolated vertices\nn 12\n")
        canon = subprocess.run([sys.executable, "-m", "geodex", "canon", str(a)],
                               capture_output=True, text=True, timeout=10)
        assert canon.returncode == 0
        assert canon.stdout == ((12).to_bytes(4, "big") + bytes(18)).hex() + "\n"
        iso = subprocess.run([sys.executable, "-m", "geodex", "iso", str(a), str(b)],
                             capture_output=True, text=True, timeout=10)
        assert (iso.returncode, iso.stdout) == (0, "isomorphic\n")

    def test_no_pool_or_hash_import_without_a_pool_or_checkpoint(self):
        # -S keeps site's imports out, so sys.modules shows what geodex pulls in
        src = str(Path(geodex.__file__).parents[1])
        script = (
            f"import io, sys; sys.path.insert(0, {src!r});"
            "from geodex import SearchParams, search; from geodex.cli import run;"
            "assert run(['moore', '2', '2'], out=io.StringIO()) == 0;"
            "print(sorted({'concurrent.futures', 'hashlib'} & set(sys.modules)));"
            "search(SearchParams(d=2, k=2, epsilon=2, diregular=True));"
            "print(sorted({'concurrent.futures', 'hashlib'} & set(sys.modules)))"
        )
        r = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
        assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n[]\n", "")

    def test_module_entry_point(self):
        r = subprocess.run([sys.executable, "-m", "geodex", "moore", "2", "2"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout == "7\n"

    @pytest.mark.parametrize("argv,code,shown", [
        (["search", "--d", "2", "--k", "1000000", "--excess", "2", "--diregular", "--long-run"], 2,
         ["error: order ~2**1000001 exceeds the limit of 4096\n"]),
        (["search", "--d", "2", "--k", "1000000", "--excess", "2"], 2,
         ["error: order ~2**1000001 exceeds the limit of 4096\n"]),
        (["verify", "A.dg", "--d", "2", "--k", "1000000", "--excess", "2"], 1,
         ["order 9 expected ~2**1000001 FAIL\n", "geodetic FAIL pair 0 0 walks 0 and 0,1,3,0\n",
          "verdict FAIL\n"]),
        (["cayley-a4", "--k", "1000000"], 1, ["witnesses=0\n"]),
        (["moore", "2", "10000000000"], 2, [_TOO_DEEP]),
        (["search", "--d", "2", "--k", "10000000000", "--excess", "2"], 2, [_TOO_DEEP]),
        (["verify", "A.dg", "--d", "2", "--k", "10000000000", "--excess", "2"], 2, [_TOO_DEEP]),
        (["cayley-a4", "--k", "10000000000"], 2, [_TOO_DEEP]),
    ], ids=["search", "search-without-long-run", "verify", "cayley-a4", "moore-refused",
            "search-refused", "verify-refused", "cayley-a4-refused"])
    def test_huge_depth_returns_at_once(self, a_path, argv, code, shown):
        # moore_bound(2, 10**6) has about 300,000 digits, too many for str(),
        # so messages show it as ~2**e; summing its terms instead of using
        # the closed form took 20 s already at k = 10**5.  At k = 10**10 the
        # power alone would take 1.25 GB, so moore_bound refuses it; the
        # 1 GiB address-space cap keeps a build without that refusal from
        # taking the memory of the whole test run
        argv = [a_path if arg == "A.dg" else arg for arg in argv]
        r = subprocess.run([sys.executable, "-m", "geodex", *argv],
                           capture_output=True, text=True, timeout=10,
                           preexec_fn=_cap_address_space)
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        for text in shown:
            assert text in r.stdout + r.stderr

    @pytest.mark.parametrize("n,out,argv,shown", [
        # 0 -> {1, 2}, then 29 rungs {1+2i, 2+2i} -> {3+2i, 4+2i}: the number
        # of walks of length <= k from 0 doubles with each step of k
        (61, [(1, 2)] + [(3 + 2 * (i // 2), 4 + 2 * (i // 2)) for i in range(58)] + [(), ()],
         ["--d", "2", "--k", "40"], ["geodetic FAIL pair 0 3 walks 0,1,3 and 0,2,3\n"]),
        # the closed walk has 1,500 steps, more than Python's recursion limit
        (1500, [((i + 1) % 1500,) for i in range(1500)],
         ["--d", "1", "--k", "1600"],
         [f"geodetic FAIL pair 0 0 walks 0 and {','.join(map(str, range(1500)))},0\n",
          "verdict FAIL\n"]),
        # no walk from any vertex lasts more than 199 steps
        (200, [(i + 1,) for i in range(199)] + [()],
         ["--d", "1", "--k", "1000000"],
         ["order 200 expected 1000001 FAIL\n", "geodetic PASS\n", "verdict FAIL\n"]),
    ], ids=["ladder", "cycle", "path"])
    def test_verify_at_a_depth_far_above_the_order(self, tmp_path, n, out, argv, shown):
        path = tmp_path / "g.dg"
        path.write_text(write_digraph(Digraph(n, out)))
        r = subprocess.run([sys.executable, "-m", "geodex", "verify", str(path), *argv,
                            "--excess", "0"], capture_output=True, text=True, timeout=10)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        for text in shown:
            assert text in r.stdout
