"""Small permutation helpers (1-based image tuples)."""

from __future__ import annotations

def sign(images) -> int:
    """Sign of a permutation given as a sequence of images of 1..k."""
    images = tuple(images)
    inversions = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return -1 if inversions % 2 else 1


def compose(p, q) -> tuple[int, ...]:
    """(p . q)(i) = p(q(i)) for image tuples p, q."""
    return tuple(p[q[i - 1] - 1] for i in range(1, len(p) + 1))


def cycles(images) -> list[tuple[int, ...]]:
    """Cycle decomposition, each cycle starting at its smallest element."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt - 1]
        out.append(tuple(cyc))
    return out
