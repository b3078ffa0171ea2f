"""Structural checks on near-Moore digraphs: pair classes, cycle census, outliers.

The pair machinery targets diregular digraphs of degree 2, geodecity 2
and excess 2.  For a pair u, v with a single common out-neighbour, write
N+(u) = {u1, c} and N+(v) = {v1, c} with c shared.  The pair is bad when
the outlier set of u misses {v1, x} entirely for some out-neighbour x of
v1, or symmetrically with u and v swapped.  Both choices of x are tried,
so the classification does not depend on how the two private branches are
ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Digraph, SearchParams, _check_vertex, moore_bound, outlier_set, verify


@dataclass(frozen=True)
class PairClass:
    """Unordered vertex pair with its common out-neighbour count.

    bad is only ever set for pairs with exactly one common out-neighbour in
    the degree-2 geodecity-2 excess-2 setting; otherwise it stays None.
    """

    u: int
    v: int
    common_out: int
    bad: bool | None = None


@dataclass(frozen=True)
class CycleCensus:
    """All directed 3-cycles, each rotated to start at its smallest vertex.

    A triple (a, b, c) means the cycle a -> b -> c -> a with a minimal, so
    both orientations of the same vertex set are recorded separately.
    per_vertex sums to three times the number of triangles.
    """

    triangles: tuple[tuple[int, int, int], ...]
    per_vertex: tuple[int, ...]


@dataclass(frozen=True)
class LemmaCheck:
    """Result of a structural lemma check.

    When the digraph does not meet the lemma's preconditions the check is
    reported as not applicable instead of crashing; holds is None then.
    """

    applicable: bool
    holds: bool | None
    reason: str = ""
    violations: tuple[str, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()


def common_out_pairs(g: Digraph, c: int) -> list[PairClass]:
    """All unordered pairs u < v with exactly c common out-neighbours."""
    if c < 0:
        raise ValueError(f"common-neighbour count must be non-negative, got {c}")
    sets = [set(targets) for targets in g.out]
    result = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if len(sets[u] & sets[v]) == c:
                result.append(PairClass(u=u, v=v, common_out=c))
    return result


def _infer_k_for_excess_2(g: Digraph) -> int | None:
    # order must be moore_bound(2, k) + 2 = 2**(k+1) + 1 for some k >= 2
    k = (g.n - 1).bit_length() - 2
    return k if k >= 2 and moore_bound(2, k) + 2 == g.n else None


def _not_excess_2(g: Digraph, k: int) -> str | None:
    """Why g is not a diregular (2,k,+2)-digraph, or None when it is one."""
    if verify(g, SearchParams(d=2, k=k, epsilon=2, diregular=True)).ok:
        return None
    return f"not a diregular (2,{k},+2)-digraph"


def check_lemma_identical_neighbourhoods(g: Digraph, k: int) -> LemmaCheck:
    """Check the twin-pair consequences in a diregular (2,k,+2)-digraph.

    For every pair u, v with N+(u) == N+(v) == {a, b}: a and b must be
    outliers of each other, u and v must be outliers of each other, and
    their outlier sets must agree outside {u, v}.
    """
    if k < 2:
        return LemmaCheck(applicable=False, holds=None, reason=f"requires k >= 2, got {k}")
    reason = _not_excess_2(g, k)
    if reason:
        return LemmaCheck(applicable=False, holds=None, reason=reason)
    outliers = [set(outlier_set(g, u, k)) for u in range(g.n)]
    # every out-list has 2 vertices, so sharing 2 out-neighbours is being twins
    pairs = [(p.u, p.v) for p in common_out_pairs(g, 2)]
    violations = []
    for u, v in pairs:
        a, b = g.out[u]
        if a not in outliers[b]:
            violations.append(f"pair ({u},{v}): {a} not an outlier of {b}")
        if b not in outliers[a]:
            violations.append(f"pair ({u},{v}): {b} not an outlier of {a}")
        if v not in outliers[u]:
            violations.append(f"pair ({u},{v}): {v} not an outlier of {u}")
        if u not in outliers[v]:
            violations.append(f"pair ({u},{v}): {u} not an outlier of {v}")
        if outliers[u] - {v} != outliers[v] - {u}:
            violations.append(f"pair ({u},{v}): outlier sets differ outside the pair")
    return LemmaCheck(
        applicable=True,
        holds=not violations,
        violations=tuple(violations),
        pairs=tuple(pairs),
    )


def check_lemma_pair_exists(g: Digraph) -> LemmaCheck:
    """Check that some pair has exactly one common out-neighbour.

    Applies to diregular digraphs of degree 2 and excess 2; the geodecity
    parameter is inferred from the order.  Such digraphs have odd order,
    and a parity count forces at least one single-overlap pair.
    """
    k = _infer_k_for_excess_2(g)
    if k is None:
        return LemmaCheck(
            applicable=False,
            holds=None,
            reason=f"order {g.n} is not moore_bound(2, k) + 2 for any k >= 2",
        )
    reason = _not_excess_2(g, k)
    if reason:
        return LemmaCheck(applicable=False, holds=None, reason=reason)
    found = common_out_pairs(g, 1)
    return LemmaCheck(
        applicable=True,
        holds=bool(found),
        pairs=tuple((p.u, p.v) for p in found),
    )


def classify_pair(g: Digraph, u: int, v: int, k: int) -> PairClass:
    """Classify a single-common-out-neighbour pair as bad or good.

    Preconditions, each reported by name when violated: k must be 2, the
    digraph must verify as a diregular (2,2,+2)-digraph, u and v must be
    distinct and share exactly one out-neighbour.
    """
    if k != 2:
        raise ValueError(f"precondition failed: classification is defined for k = 2, got k = {k}")
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise ValueError("precondition failed: need two distinct vertices")
    reason = _not_excess_2(g, k)
    if reason:
        raise ValueError(f"precondition failed: {reason}")
    common = set(g.out[u]) & set(g.out[v])
    if len(common) != 1:
        raise ValueError(
            f"precondition failed: pair ({u},{v}) has {len(common)} common out-neighbours, need exactly 1"
        )
    shared = common.pop()
    u1 = next(w for w in g.out[u] if w != shared)
    v1 = next(w for w in g.out[v] if w != shared)
    o_u = set(outlier_set(g, u, k))
    o_v = set(outlier_set(g, v, k))
    bad = any(not (o_u & {v1, x}) for x in g.out[v1]) or any(
        not (o_v & {u1, x}) for x in g.out[u1]
    )
    return PairClass(u=min(u, v), v=max(u, v), common_out=1, bad=bad)


def triangle_census(g: Digraph) -> CycleCensus:
    """Count directed 3-cycles and per-vertex triangle membership."""
    out_sets = [set(targets) for targets in g.out]
    triangles = []
    per_vertex = [0] * g.n
    for a in range(g.n):
        for b in g.out[a]:
            if b <= a:
                continue
            for c in g.out[b]:
                if c <= a or c == b:
                    continue
                if a in out_sets[c]:
                    triangles.append((a, b, c))
                    per_vertex[a] += 1
                    per_vertex[b] += 1
                    per_vertex[c] += 1
    return CycleCensus(triangles=tuple(triangles), per_vertex=tuple(per_vertex))

