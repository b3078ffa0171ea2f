"""`python -m geodex ARGS...` with the host-speed probe on.

    python3 perfbench/probed_cli.py SAMPLE_DIR ARGS...

Runs the package's CLI in this process exactly as ``python -m geodex
ARGS...`` would, with a probe.Probe that writes the samples of this
process and of every worker it forks to SAMPLE_DIR.  The exit code is the
CLI's.
"""

import os
import runpy
import sys
from pathlib import Path

from probe import Probe

if __name__ == "__main__":
    probe = Probe(Path(sys.argv[1]))
    # run the CLI with the argv and module search path `python -m` gives it
    sys.path[0] = os.getcwd()
    del sys.argv[1]
    probe.start()
    try:
        runpy.run_module("geodex", run_name="__main__", alter_sys=True)
    finally:
        probe.stop()
