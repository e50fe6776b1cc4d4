"""Bigraded Tate-twist arithmetic and closed-form twist evaluation.

Twists (x)[y] form the rank-2 free abelian group Z^2; all arithmetic is
exact integers (the target group is torsion free, so no reduction ever
happens).  A twist is an immutable pair of ints (a NamedTuple), so building,
comparing, hashing and ordering one are C tuple operations; only its group
law, rendering and JSON run Python code.  The evaluators below compute, from Witt
indices alone, the twist value of the affine-quadric generator e^q and of
det(Q) at an extension of the lattice.  They memoize their values in the
lattice's memos["twists"], which maps each oracle group to its pair of rows,
(affine, det), each form memo_id -> value; so every token of a group shares
one evaluation.  The group is one subscript of the lattice's group_of map,
which refuses an unknown token before anything else is read.  The memo holds
values only; an extension or form that the oracle refuses is refused again
on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from .forms import ProjectiveQuadric, QuadraticForm

_new = tuple.__new__


def _not_a_twist(other) -> TypeError:
    return TypeError(f"a Tate twist combines only with a Tate twist, not {type(other).__name__}")


class TateTwist(NamedTuple):
    """The twist (x)[y], an immutable pair of ints.

    Equality, hashing and ordering are those of the pair (x, y), so a twist
    equals the plain tuple with the same entries: TateTwist(1, 2) == (1, 2)
    and both hash alike.  Arithmetic is the group law of Z^2, never the
    sequence operations of tuple: adding anything but a twist raises
    TypeError, and a twist scales by an int from either side.  bool(t) is
    false only for (0)[0].
    """

    x: int = 0
    y: int = 0

    def __add__(self, other: "TateTwist") -> "TateTwist":
        if type(other) is not TateTwist:
            raise _not_a_twist(other)
        return _new(TateTwist, (self[0] + other[0], self[1] + other[1]))

    def __radd__(self, other):
        # without it, tuple + twist would concatenate
        raise _not_a_twist(other)

    def __sub__(self, other: "TateTwist") -> "TateTwist":
        if type(other) is not TateTwist:
            raise _not_a_twist(other)
        return _new(TateTwist, (self[0] - other[0], self[1] - other[1]))

    def __neg__(self) -> "TateTwist":
        return _new(TateTwist, (-self[0], -self[1]))

    def __rmul__(self, scalar: int) -> "TateTwist":
        # also serves twist * k, which tuple would otherwise repeat
        if not isinstance(scalar, int):
            raise TypeError(f"a Tate twist scales only by an int, not {type(scalar).__name__}")
        return _new(TateTwist, (scalar * self[0], scalar * self[1]))

    __mul__ = __rmul__

    def __bool__(self) -> bool:
        return self != (0, 0)

    def render(self) -> str:
        return f"({self[0]})[{self[1]}]"

    __str__ = render

    def to_json(self) -> dict:
        return {"x": self[0], "y": self[1]}

    @staticmethod
    def from_json(data: dict) -> "TateTwist":
        return TateTwist(data["x"], data["y"])


ZERO_TWIST = TateTwist(0, 0)


def split_quadric_sum(m: int, j: int) -> TateTwist:
    """Sum over l < j of (m - 2l)[2m - 4l + 1] for a quadric of dimension m.

    Closed form for j >= 0: (jm - j(j-1))[j(2m+1) - 2j(j-1)].
    """
    pairs = j * (j - 1)
    return _new(TateTwist, (j * m - pairs, j * (2 * m + 1) - 2 * pairs))


def phi_affine(q: QuadraticForm, extension: str, model) -> TateTwist:
    """Twist value of the generator e^q at an extension.

    With P, P' the quadrics of q and q' and j_P, j_P' their Witt indices,
    the value is the difference of the two split sums over P' and P.
    """
    memo = model.memos["twists"]
    group = model.group_of[extension]
    # setdefault, so that concurrent readers of a new group share one pair
    row = (memo.get(group) or memo.setdefault(group, ({}, {})))[0]
    # memo_id keeps a declared id that spells a real key off the real entry
    value = row.get(q.memo_id)
    if value is None:
        q_prime = model.prime_of(q)
        j_p = model.witt_index(q, extension)
        j_pp = model.witt_index(q_prime, extension)
        value = split_quadric_sum(q_prime.dim - 2, j_pp) - split_quadric_sum(
            q.dim - 2, j_p
        )
        row[q.memo_id] = value
    return value


def phi_det(quadric: ProjectiveQuadric, extension: str, model) -> TateTwist:
    """Twist value of det(Q) at an extension: the split sum at i_W(Q_E)."""
    group = model.group_of[extension]  # refuses an unknown token, also for the empty quadric
    if quadric.is_empty:
        return ZERO_TWIST
    memo = model.memos["twists"]
    row = (memo.get(group) or memo.setdefault(group, ({}, {})))[1]
    form = quadric.canonical_form
    value = row.get(form.memo_id)
    if value is None:
        j = model.witt_index(form, extension)
        value = split_quadric_sum(quadric.dim, j)
        row[form.memo_id] = value
    return value

