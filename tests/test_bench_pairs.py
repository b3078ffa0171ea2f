import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def test_an_unwritable_out_path_fails_before_any_run(tmp_path):
    # the runs take minutes, so a bad --out must stop the tool before the first one
    out = tmp_path / "missing" / "bench.json"
    r = subprocess.run([sys.executable, str(TOOL), "HEAD", "HEAD", "--pairs", "1",
                        "--seconds", "1", "--out", str(out)],
                       capture_output=True, text=True, timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write --out ")
    assert not out.parent.exists()



def test_an_unknown_workload_fails_before_any_run(tmp_path):
    # a typo would otherwise cost every run of that name and leave its pairs empty
    out = tmp_path / "bench.json"
    r = subprocess.run([sys.executable, str(TOOL), "HEAD", "HEAD", "--pairs", "1",
                        "--seconds", "1", "--workloads", "verify_corpus,nope",
                        "--out", str(out)],
                       capture_output=True, text=True, timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown --workloads nope;")
    assert not out.exists()

def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdicts_on_synthetic_pairs():
    tool = _tool()
    parent = [2.00, 2.02, 2.04, 2.06, 2.08, 2.10, 2.12, 2.14, 2.16, 2.18]  # median 2.09, IQR 0.09

    def entry(change):
        wins = sum(c < p for p, c in zip(parent, change))
        return {"parent": tool._summary(parent), "change": tool._summary(change),
                "change_better_pairs": wins, "pairs": len(parent)}

    down = [p - 0.2 for p in parent]
    pairs = {
        "all_ten": entry(down),
        "nine": entry(down[:9] + [parent[9] + 0.01]),
        "eight": entry(down[:8] + [p + 0.01 for p in parent[8:]]),
        "inside_the_iqr": entry([p - 0.05 for p in parent]),
        "worse": entry([p * 1.2 for p in parent]),
        "worse_within_the_bound": entry([p * 1.1 for p in parent]),
    }
    verdicts = {w: tool._verdict(e, "lower", 0.15) for w, e in pairs.items()}
    assert verdicts == {"all_ten": "gain", "nine": "gain", "eight": "held",
                        "inside_the_iqr": "held", "worse": "worse",
                        "worse_within_the_bound": "held"}
    # a metric without a bound is never worse
    assert tool._verdict(pairs["worse"], "lower", None) == "held"
    # for a metric where higher is better the same runs read the other way
    assert tool._verdict(dict(entry([p * 0.8 for p in parent]), change_better_pairs=0),
                         "higher", 0.15) == "worse"
    assert tool._verdict(dict(pairs["worse"], change_better_pairs=10), "higher", 0.15) == "gain"


def test_host_counts_the_cpus_this_process_may_use(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    host = tool._host()
    assert (host["cores"], host["usable_cpus"]) == (4, 2)
    assert set(host) == {"cores", "usable_cpus", "machine", "python"}
    # without an affinity call every CPU counts as usable
    monkeypatch.delattr(os, "sched_getaffinity")
    assert tool._host()["usable_cpus"] == 4
