"""What the benchmark measures: workloads, metrics with their bounds, and
the pinned outputs every run is checked against.

BENCHMARK.json is generated from this module (``run.py --write-spec``),
so the two never disagree.  Pinned values come from the parent of the
change that introduced the benchmark; a node, split, leaf or checkpoint
count that moves is reported as a count change, while a wrong class count,
a cleared ``complete`` flag or different canonical bytes is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 15

# every timed run completes at least this many operations, so a median
# exists even when one operation outlasts --seconds
MIN_OPS = 2

# set-up runs this many times before the first operation and once more
# after every operation, so its median samples the whole run; one set-up
# takes 10-40 ms, so it takes this many for the median to hold still
SETUP_REPS = 30

WORKLOADS = {
    "nonexist": "library search() serial on (2,3,+2) then (3,2,+1): no leaves, so the time is the "
                "incremental geodecity check and global cuts; canon, verify and the pool stay idle",
    "leaf_rich": "library search() serial on (2,2,+4): 8,252 leaves collapse to 58 classes, so canon "
                 "and per-leaf verify take most of the time",
    "cli_parallel": "geodex search CLI as users run it: --jobs 2 on (3,2,+1) and out-regular (2,2,+3), "
                    "then (2,3,+2) in 100000-node checkpoint slices until complete",
    "verify_corpus": "seeded relabellings of the catalog pair, all 66 A4 Cayley digraphs and the 58 "
                     "(2,2,+4) classes through file IO, verify, canon, orbits and censuses",
}

# the benchmark's own quick self-test; not part of BENCHMARK.json
SMOKE = "smoke"

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen.  scaled_wall_s is the median time of one
# operation and setup_s the median time of one set-up, both scaled to the
# host-speed probe's reference speed (probe.py); the unscaled times are
# printed beside them.
END_TO_END = (
    ("scaled_wall_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

# (name, unit, better); each traced run reports all of them, with 0 for a
# layer the workload does not exercise
PER_LAYER = (
    ("search.split.s", "s", "lower"),
    ("search.split.nodes", "count", "lower"),
    ("search.split.tasks", "count", "higher"),
    ("search.tasks.self_s", "s", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.task.s_p50", "s", "lower"),
    ("search.task.s_max", "s", "lower"),
    ("search.task.nodes_max_share", "ratio", "lower"),
    ("search.leaves", "count", "lower"),
    ("search.classes", "count", "lower"),
    ("search.unique_ratio", "ratio", "higher"),
    ("canon.calls", "count", "lower"),
    ("canon.s", "s", "lower"),
    ("canon.s_p50", "s", "lower"),
    ("canon.s_p99", "s", "lower"),
    ("canon.corpus.s", "s", "lower"),
    ("canon.orbits.s", "s", "lower"),
    ("core.verify.calls", "count", "lower"),
    ("core.verify.s", "s", "lower"),
    ("lemmas.census.s", "s", "lower"),
    ("catalog.read.s", "s", "lower"),
    ("cayley.scan.s", "s", "lower"),
    ("pool.speedup", "ratio", "higher"),
    ("pool.efficiency", "ratio", "higher"),
    ("cli.startup_s", "s", "lower"),
    ("cli.checkpoint.slices", "count", "lower"),
    ("cli.checkpoint.bytes", "count", "lower"),
    ("cli.slice_overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Case:
    """One search with its pinned outcome.

    forms_sha256 is the sha256 of the result canonical forms concatenated
    in sorted order, so it fixes the class set, not only its size.
    """

    name: str
    d: int
    k: int
    epsilon: int
    diregular: bool
    nodes: int
    classes: int
    leaves: int
    split_nodes: int
    split_tasks: int
    forms_sha256: str


_EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CASES = {
    c.name: c for c in (
        Case("d2k2e2", 2, 2, 2, True, 3_724, 2, 56, 154, 30,
             "c7d5c7eb26a73e32ad11d7e0d7a2b10b4dbc3d3570c20932663cfa398813006d"),
        Case("d2k3e2", 2, 3, 2, True, 232_151, 0, 0, 1_047, 212, _EMPTY_SHA256),
        Case("d3k2e1", 3, 2, 1, True, 1_025_368, 0, 0, 1_048, 483, _EMPTY_SHA256),
        Case("d2k2e4", 2, 2, 4, True, 527_710, 58, 8_252, 164, 39,
             "f69971d6d04a0498dcccef749388b91a76d7d348314cfad627f878879f4009d8"),
        Case("d2k2e3-out", 2, 2, 3, False, 375_060, 107, 10_580, 183, 38,
             "8254026306182b1df8b940d6385395bc684ee0f8d9b11772b74b9da5a19bcffa"),
    )
}

# library search workloads and the cases each runs, in order
SEARCH_WORKLOADS = {
    "nonexist": ("d2k3e2", "d3k2e1"),
    "leaf_rich": ("d2k2e4",),
    SMOKE: ("d2k2e2",),
}

# README values
CATALOG_A_HEX = "0000000918406048404980a0880300"
# bad pairs in catalog A and B
CATALOG_BAD_PAIRS = (3, 0)
CLI_SLICE_BUDGET = 100_000
CLI_SLICE_NODES = (98_527, 194_025, 232_151)
CLI_MAX_SLICES = 8
# sha256 of the result blocks `geodex search --d 2 --k 2 --excess 3` prints, for any --jobs
CLI_OUT_REGULAR_SHA256 = "e968c78b249cc2d019cf96b9cbe792aaf8acbb3fab2498face48b617274cd470"
CLI_CHECKPOINT_BYTES = 8_113

# verify_corpus pins; all are invariant under relabelling, so independent
# of the seed
CORPUS_SIZE = 126
CORPUS_FORMS_SHA256 = "0be5d8db3575d10837b32a77d38ac3e9abafef025c09863cb7b7bb5fac1a9652"
CORPUS_CENSUS_SHA256 = "fedf2fd5229e1ca171510062dc29cb168ef6d86e44729b8fb7377f0981d597d6"
CAYLEY_WITNESSES = 24


def benchmark_json() -> dict:
    """The BENCHMARK.json document, keys in the order the file uses."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
