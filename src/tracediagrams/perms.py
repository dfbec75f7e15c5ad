"""Small permutation helpers (1-based image tuples)."""

from __future__ import annotations

def sign(images) -> int:
    """Sign of a permutation given as a sequence of images of 1..k: (-1)^(k - cycles)."""
    images, seen, cycles = tuple(images), set(), 0
    for start in images:
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = images[start - 1]
    return -1 if (len(images) - cycles) % 2 else 1


def compose(p, q) -> tuple[int, ...]:
    """(p . q)(i) = p(q(i)) for image tuples p, q."""
    return tuple(p[q[i - 1] - 1] for i in range(1, len(p) + 1))

