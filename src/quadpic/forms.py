"""Exact algebra of nondegenerate quadratic forms.

Real-backend forms are stored as signature pairs (pos, neg): over a
real-closed base field the signature is a complete invariant, and every
formula downstream consumes only dimensions and Witt indices.  Declared
forms are opaque tokens whose Witt behaviour lives in a declared model
table.

Sign conventions: -q swaps (p, m) -> (m, p); <1> adds (1, 0).  This makes
prime(q) = <1> + (-q) a map with prime(prime(q)) = q + hyperbolic plane.
"""

from __future__ import annotations

import operator

from .errors import ModelError

REAL = "real"
DECLARED = "declared"

# begins a declared form's memo_id; every real key begins with "("
DECLARED_MEMO_PREFIX = "declared:"

# one shared instance per real signature handed out by QuadraticForm.real;
# forms are immutable, so callers can share them, and the table holds one
# entry per signature ever asked for
_REAL_FORMS: dict[tuple[int, int], "QuadraticForm"] = {}

_set = object.__setattr__


def _compare(op):
    return lambda self, other: (op(self._astuple(), other._astuple())
                                if other.__class__ is self.__class__ else NotImplemented)


class _Value:
    """Base of the slotted value types below: __init__ sets each field once, and
    assigning or deleting one raises.  Equality, hashing and order are those of
    _astuple(), the constructor arguments, within one class only, so a value never
    equals a tuple; copies and pickles rebuild it through __init__."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _compare, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return (self.__class__, self._astuple())


class QuadraticForm(_Value):
    """A nondegenerate quadratic form: real signature or declared token.

    is_real, dim, key and memo_id are computed once, when the instance is
    made, and QuadraticForm.real returns one shared instance per signature.
    memo_id names the form in the oracle memo rows, which both backends' forms
    may reach: it is key for a real form, and the id behind DECLARED_MEMO_PREFIX
    for a declared one.  No real key begins with that prefix, so a declared id
    that spells a real key never finds the real form's entry.
    """

    # key is the stable identifier: "(p,m)" for real forms, the token otherwise
    __slots__ = ("kind", "pos", "neg", "ident", "declared_dim", "is_real", "dim", "key",
                 "memo_id")

    def __init__(self, kind: str, pos=0, neg=0, ident="", declared_dim=0) -> None:
        real = kind == REAL
        _set(self, "kind", kind)
        _set(self, "pos", pos)
        _set(self, "neg", neg)
        _set(self, "ident", ident)
        _set(self, "declared_dim", declared_dim)
        _set(self, "is_real", real)
        _set(self, "dim", pos + neg if real else declared_dim)
        _set(self, "key", f"({pos},{neg})" if real else ident)
        _set(self, "memo_id", self.key if real else DECLARED_MEMO_PREFIX + ident)

    def _astuple(self) -> tuple:
        return (self.kind, self.pos, self.neg, self.ident, self.declared_dim)

    @staticmethod
    def real(pos: int, neg: int) -> "QuadraticForm":
        got = _REAL_FORMS.get((pos, neg))
        if got is None:
            if pos < 0 or neg < 0 or pos + neg < 1:
                raise ValueError(f"invalid signature ({pos},{neg})")
            got = _REAL_FORMS.setdefault((pos, neg), QuadraticForm(REAL, pos=pos, neg=neg))
        return got

    @staticmethod
    def declared(ident: str, dim: int) -> "QuadraticForm":
        if not ident:
            raise ValueError("declared form needs a nonempty id")
        if dim < 1:
            raise ValueError(f"declared form {ident!r} needs dim >= 1")
        return QuadraticForm(DECLARED, ident=ident, declared_dim=dim)

    def negated(self) -> "QuadraticForm":
        if not self.is_real:
            raise ModelError(f"cannot negate declared form {self.key}")
        return QuadraticForm.real(self.neg, self.pos)

    def __repr__(self) -> str:
        return f"QuadraticForm[{self.key}]"


def real_form_from_key(key: str) -> QuadraticForm:
    """Parse "(p,m)" back into a real form."""
    body = key.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a real form literal: {key!r}")
    try:
        p, m = (int(part) for part in body[1:-1].split(","))
    except Exception as exc:
        raise ValueError(f"not a real form literal: {key!r}") from exc
    return QuadraticForm.real(p, m)


def prime(q: QuadraticForm) -> QuadraticForm:
    """q' = <1> + (-q); on real signatures (p, m) -> (m+1, p).

    >>> prime(QuadraticForm.real(0, 2))
    QuadraticForm[(3,0)]
    >>> prime(prime(QuadraticForm.real(1, 1)))   # adds one hyperbolic plane
    QuadraticForm[(2,2)]

    Declared forms resolve their prime through the model's prime links
    (DeclaredLattice.prime_of).
    """
    if not q.is_real:
        raise ModelError(
            f"prime of declared form {q.key} must come from the model's prime link"
        )
    return QuadraticForm.real(q.neg + 1, q.pos)


def pfister_real(r: int) -> QuadraticForm:
    """The r-fold Pfister form <<-1,...,-1>> over the real base: 2^r * <1>.

    >>> pfister_real(3)
    QuadraticForm[(8,0)]
    """
    if r < 1:
        raise ValueError(f"Pfister fold must be >= 1, got {r}")
    return QuadraticForm.real(2**r, 0)


class ProjectiveQuadric(_Value):
    """The smooth projective quadric {q = 0}; dim = dim(q) - 2.

    {q = 0} and {-q = 0} are the same variety, so the identity of a real
    quadric is the sign-canonical signature (larger coordinate first).
    Dimension-1 forms give the empty quadric (dim -1).  dim, is_empty,
    canonical_form and key are computed once, when the instance is made.
    """

    __slots__ = ("form", "dim", "is_empty", "canonical_form", "key")

    def __init__(self, form: QuadraticForm) -> None:
        canonical = form.negated() if form.is_real and form.neg > form.pos else form
        _set(self, "form", form)
        _set(self, "dim", form.dim - 2)
        _set(self, "is_empty", form.dim < 2)
        _set(self, "canonical_form", canonical)
        _set(self, "key", canonical.key)

    def _astuple(self) -> tuple:
        return (self.form,)

    def __repr__(self) -> str:
        return f"Quadric[{self.key}]"


class Grassmannian(_Value):
    """G(Q, n): n-dimensional projective subspaces on the quadric Q."""

    __slots__ = ("quadric", "planes")

    def __init__(self, quadric: ProjectiveQuadric, planes: int) -> None:
        if planes < 0 or 2 * planes > quadric.dim:
            raise ValueError(f"G({quadric.key},{planes}): plane level out of range")
        _set(self, "quadric", quadric)
        _set(self, "planes", planes)

    def _astuple(self) -> tuple:
        return (self.quadric, self.planes)

    def __repr__(self) -> str:
        return f"G[{self.quadric.key},{self.planes}]"
