"""Shared hypothesis strategies for digraph property tests."""

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
