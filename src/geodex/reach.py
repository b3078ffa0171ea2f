"""Layered reach over adjacency bitmasks: the one scan behind balls and geodecity.

masks[x] has bit y set for each arc x -> y; pass in-masks instead to scan
backwards.  Vertex sets are ints with bit v set for each member v.
"""

from __future__ import annotations


def layers(masks: list[int], u: int, r: int) -> list[int]:
    """The vertices at distance exactly 0, 1, ..., r from u, one set each.

    The list ends before the first empty layer, so it may be shorter than
    r + 1.
    """
    acc = cur = 1 << u
    found = [cur]
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
        found.append(nxt)
        cur = nxt
    return found


def geodetic_balls(masks: list[int], u: int, k: int) -> list[int]:
    """The balls of u of radius 0, 1, ..., k, or [] when two walks of
    length <= k from u end at one vertex or one returns to u.

    Layer i holds the ends of the walks of length i; while no two walks
    meet, each vertex in it ends exactly one of them, so a collision
    inside the layer or with an earlier one is the first duplicate.
    """
    acc = cur = 1 << u
    balls = [acc]
    for _ in range(k):
        nxt = 0
        c = cur
        while c:
            b = c & -c
            c ^= b
            m = masks[b.bit_length() - 1]
            if nxt & m:
                return []
            nxt |= m
        if nxt & acc:
            return []
        acc |= nxt
        balls.append(acc)
        cur = nxt
    return balls


def reach(masks: list[int], u: int, r: int) -> int:
    """The r-ball of u: every vertex within r steps of u, u included."""
    acc = 0
    for layer in layers(masks, u, r):
        acc |= layer
    return acc


def geodetic_ball(masks: list[int], u: int, k: int) -> int:
    """The k-ball of u, or 0 when two walks of length <= k from u end at
    one vertex or one returns to u."""
    balls = geodetic_balls(masks, u, k)
    return balls[-1] if balls else 0
