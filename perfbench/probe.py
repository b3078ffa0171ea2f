"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared host the CPU speed one process gets swings by about 20%
within seconds and drifts over minutes, far more than the spread a
benchmark bound can allow.  The probe samples that speed while the
program runs: a SIGPROF interval timer interrupts the process after every
INTERVAL_S of its CPU time, and the handler times a fixed pure-Python
reference routine (run once untimed first, so the timed call measures the
core rather than the cache state the program left).  Over a window with
probe durations p_j the host ran at mean(NOMINAL_S / p_j) times the
reference speed, so

    scaled time = elapsed time * mean(NOMINAL_S / p_j)

is the time the window would have taken on a core where the reference
routine takes NOMINAL_S.  The samples are spread evenly over CPU time, and
a probe costs about 1% of it.  The reference routine is the benchmark's
own code, so a change to the package moves the scaled time exactly as
much as the elapsed time.

Processes started by the benchmark (the CLI, and the workers it forks)
run under probed_cli.py, which writes their samples to files in a
directory; ``collect`` reads and removes them.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

# CPU time between two probes
INTERVAL_S = 0.02
# the reference routine's time on an unloaded core of a 2.1 GHz Xeon VM
# (Python 3.11); only the scale of the scaled times depends on it
NOMINAL_S = 100e-6
# samples a child process keeps before appending them to its file
FLUSH_EVERY = 16


def reference() -> int:
    """Fixed mixed work: list indexing, integer arithmetic, dict and set updates."""
    a = list(range(64))
    counts: dict[int, int] = {}
    odd = set()
    acc = 0
    for i in range(400):
        j = a[i & 63]
        acc += (j * i) ^ (acc >> 3)
        counts[j] = counts.get(j, 0) + 1
        if j & 1:
            odd.add(j)
    return acc + len(odd) + len(counts)


class Probe:
    """Times the reference routine every INTERVAL_S of this process's CPU time.

    With ``flush_dir`` set, samples are appended to ``<flush_dir>/<pid>``
    every FLUSH_EVERY samples and on ``stop``; a forked child starts its
    own timer and file.
    """

    def __init__(self, flush_dir: Path | None = None) -> None:
        self.samples: list[float] = []
        self.flush_dir = flush_dir

    def _on_signal(self, signum, frame) -> None:
        reference()
        t = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t)
        if self.flush_dir is not None and len(self.samples) >= FLUSH_EVERY:
            self.flush()

    def _after_fork(self) -> None:
        # interval timers are not inherited by a forked child
        self.samples.clear()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        if self.flush_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if self.flush_dir is not None:
            self.flush()

    def flush(self) -> None:
        with open(self.flush_dir / str(os.getpid()), "a", encoding="ascii") as fh:
            fh.write("".join(f"{x!r}\n" for x in self.samples))
        self.samples.clear()


def collect(flush_dir: Path) -> list[float]:
    """Every sample the child processes wrote to flush_dir; the files are removed."""
    samples: list[float] = []
    for path in sorted(flush_dir.iterdir()):
        samples += [float(x) for x in path.read_text(encoding="ascii").split()]
        path.unlink()
    return samples


def speed(samples: list[float]) -> float:
    """Host speed over the samples, relative to the reference speed."""
    return sum(NOMINAL_S / p for p in samples) / len(samples)
