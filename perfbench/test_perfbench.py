"""The benchmark's own test: run with `python3 -m pytest perfbench` from the repo root."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_checks_and_reports_every_metric(trace):
    done = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in names]
    counters = json.loads(next(ln for ln in lines if ln.startswith("counters "))[9:])
    assert counters["d2k2e2.nodes"] == 3724 and counters["d2k2e2.classes"] == 2
    if trace:
        assert counters["d2k2e2.leaves"] == 56
        assert result["metrics"]["search.leaves"]["value"] == 56
        assert result["metrics"]["canon.s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any(ln.startswith(("count-change", "failed-check")) for ln in lines)


def test_benchmark_json_is_generated_from_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_probed_cli_keeps_the_exit_code_and_writes_samples_of_each_process(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, str(HERE / "probed_cli.py"), str(tmp_path), "moore", "2", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "7")
    done = subprocess.run([sys.executable, str(HERE / "probed_cli.py"), str(tmp_path), "search",
                           "--d", "2", "--k", "2", "--excess", "2", "--diregular", "--jobs", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.splitlines()[-1].endswith("complete=true")
    import probe
    files = list(tmp_path.iterdir())
    samples = probe.collect(tmp_path)
    assert files and not list(tmp_path.iterdir())
    assert all(0 < x < 1 for x in samples)
    assert probe.speed([probe.NOMINAL_S, probe.NOMINAL_S / 2]) == 1.5
