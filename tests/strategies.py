"""Shared hypothesis strategies for digraph property tests, and seeded digraphs."""

import random

from hypothesis import strategies as st

from geodex import Digraph


@st.composite
def digraphs(draw, min_n=1, max_n=7, loops=False):
    n = draw(st.integers(min_n, max_n))
    out = []
    for v in range(n):
        choices = [w for w in range(n) if loops or w != v]
        if choices:
            row = draw(st.lists(st.sampled_from(choices), unique=True,
                                max_size=len(choices)))
        else:
            row = []
        out.append(row)
    return Digraph(n, out)


@st.composite
def permutations(draw, n):
    return draw(st.permutations(list(range(n))))


@st.composite
def symmetric_digraphs(draw, max_n=6):
    """Digraphs with large automorphism groups, randomly relabelled.

    Disjoint unions of copies of a small digraph (loops allowed), edgeless
    and complete digraphs, and directed cycles, of order at most max_n.
    """
    kind = draw(st.sampled_from(["copies", "edgeless", "complete", "cycle"]))
    if kind == "copies":
        base = draw(digraphs(min_n=1, max_n=3, loops=True))
        copies = draw(st.integers(1, max_n // base.n))
        n = base.n * copies
        out = [[w + c * base.n for w in base.out[v]] for c in range(copies) for v in range(base.n)]
    else:
        n = draw(st.integers(1, max_n))
        if kind == "edgeless":
            out = [[] for _ in range(n)]
        elif kind == "complete":
            out = [[w for w in range(n) if w != v] for v in range(n)]
        else:
            out = [[(v + 1) % n] for v in range(n)]
    perm = draw(permutations(n))
    relabelled = [()] * n
    for v in range(n):
        relabelled[perm[v]] = tuple(perm[w] for w in out[v])
    return Digraph(n, relabelled)


@st.composite
def partitioned_digraphs(draw, max_n=40):
    """A digraph and any ordered partition of its vertices.

    Out-degrees are mixed, loops are allowed and some vertices are
    isolated; the cells come in any order, each with its vertices in any
    order, singletons included.
    """
    n = draw(st.integers(1, max_n))
    caps = draw(st.lists(st.sampled_from([0, 1, 2, 3, n]), min_size=1, max_size=4))
    out = [draw(st.lists(st.integers(0, n - 1), unique=True, max_size=caps[v % len(caps)]))
           for v in range(n)]
    order = draw(permutations(n))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    cells = [[order[0]]]
    for v, cut in zip(order[1:], cuts):
        if cut:
            cells.append([v])
        else:
            cells[-1].append(v)
    return Digraph(n, out), cells


@st.composite
def circulant_digraphs(draw, max_n=30):
    """Cayley digraphs of Z_n: v -> v + s (mod n) for each s of a drawn set.

    Every vertex looks alike, so refinement keeps one cell, and an
    individualised vertex's neighbours can have an arc to it, an arc from
    it or both, depending on whether s, -s or both are in the set.
    """
    n = draw(st.integers(1, max_n))
    steps = draw(st.sets(st.integers(0, n - 1)))
    return Digraph(n, [sorted({(v + s) % n for s in steps}) for v in range(n)])


@st.composite
def two_in_two_out_digraphs(draw, max_n=30):
    """Random digraphs in which every vertex has 2 out- and 2 in-neighbours.

    v's row is {p(v), p(c(v))} for a permutation p and a cyclic
    permutation c of all n >= 2 vertices, so each p(u) is reached from u
    and from the one vertex that c sends to u; loops are allowed.
    """
    n = draw(st.integers(2, max_n))
    p, cycle = draw(permutations(n)), draw(permutations(n))
    c = [0] * n
    for i, u in enumerate(cycle):
        c[u] = cycle[i - 1]
    return Digraph(n, [(p[v], p[c[v]]) for v in range(n)])


def two_out_digraph(n, seed):
    """A seeded random digraph in which every vertex has 2 out-neighbours.

    Loops are allowed.  Not a strategy: the same seed gives the same
    digraph in every run, so its canonical bytes can be pinned.
    """
    rng = random.Random(seed)
    return Digraph(n, [rng.sample(range(n), 2) for _ in range(n)])
