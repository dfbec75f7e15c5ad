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

