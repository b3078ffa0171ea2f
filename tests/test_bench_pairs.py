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
