"""Layered reach over adjacency bitmasks: the one scan behind balls and geodecity.

masks[x] has bit y set for each arc x -> y; pass in-masks instead to scan
backwards.  Vertex sets are ints with bit v set for each member v.
"""

from __future__ import annotations


def reach(masks: list[int], u: int, r: int) -> int:
    """The r-ball of u: every vertex within r steps of u, u included."""
    acc = cur = 1 << u
    for _ in range(r):
        nxt = 0
        c = cur
        while c:
            b = c & -c
            c ^= b
            nxt |= masks[b.bit_length() - 1]
        nxt &= ~acc
        if not nxt:
            break
        acc |= nxt
        cur = nxt
    return acc


def geodetic_ball(masks: list[int], u: int, k: int) -> int:
    """The k-ball of u, or 0 when two walks of length <= k from u end at
    one vertex or one returns to u.

    Layer i holds the ends of the walks of length i; while no two walks
    meet, each vertex in it ends exactly one of them, so a collision
    inside the layer or with an earlier one is the first duplicate.
    """
    acc = cur = 1 << u
    for _ in range(k):
        nxt = 0
        c = cur
        while c:
            b = c & -c
            c ^= b
            m = masks[b.bit_length() - 1]
            if nxt & m:
                return 0
            nxt |= m
        if nxt & acc:
            return 0
        if not nxt:
            break
        acc |= nxt
        cur = nxt
    return acc
