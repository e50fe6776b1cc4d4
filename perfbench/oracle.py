"""Answers the benchmark computes on its own, apart from the engine.

Twists are plain (x, y) integer pairs here, so nothing below depends on the
engine's types or code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a kind and its seeded arguments."""

    kind: str
    args: tuple = ()
    expect: object = None
    meta: dict = field(default_factory=dict, compare=False, hash=False)


class Balanced:
    """Seeded draws from a fixed list that use every entry equally often.

    Entries come from shuffled passes over the whole list, so a round that
    draws a multiple of its length gets the same multiset whatever the seed;
    only the order and the pairing with other choices change.
    """

    def __init__(self, rng, values):
        self.rng, self.values, self.pool = rng, list(values), []

    def __call__(self):
        if not self.pool:
            self.pool = self.values[:]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def signatures(lo: int, hi: int, canonical: bool = False) -> list[tuple[int, int]]:
    """Every real signature (p, m) with lo <= p + m <= hi; p >= m if canonical."""
    return [(p, n - p) for n in range(lo, hi + 1) for p in range(n + 1)
            if not canonical or p >= n - p]


def split_sum(m: int, j: int) -> tuple[int, int]:
    """Closed form of sum_{l<j} (m-2l)[2m-4l+1] = (jm-j(j-1))[j(2m+1)-2j(j-1)]."""
    return (j * m - j * (j - 1), j * (2 * m + 1) - 2 * j * (j - 1))


def witt_index_base(p: int, m: int) -> int:
    """Sylvester's law over the real base: i_W(p, m) = min(p, m)."""
    return min(p, m)


def phi_affine_base(p: int, m: int) -> tuple[int, int]:
    """Twist of e^(p,m) over the real base.

    With q' = <1> + (-q) = (m+1, p), P of dimension p+m-2 and P' of
    dimension p+m-1, the value is S(P', j_P') - S(P, j_P).
    """
    j, j_prime = witt_index_base(p, m), witt_index_base(m + 1, p)
    a = split_sum(p + m - 1, j_prime)
    b = split_sum(p + m - 2, j)
    return (a[0] - b[0], a[1] - b[1])


def inverse_constant(n: int) -> tuple[int, int]:
    """e^q * e^(q') is the constant twist (n)[2n+1] for dim q = n."""
    return (n, 2 * n + 1)


def same_up_to_sign(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Two real quadrics {q = 0} agree exactly when their signatures do up to sign."""
    return a == b or a == (b[1], b[0])


def pfister_det_coefficient(r: int) -> int:
    """det of the r-fold Pfister quadric is -2^(r-1) times e^(2^r <1>)."""
    return -(2 ** (r - 1))


def render(twist: tuple[int, int]) -> str:
    return f"({twist[0]})[{twist[1]}]"


def pair(twist) -> tuple[int, int]:
    """An engine twist as a plain pair."""
    return (twist.x, twist.y)
