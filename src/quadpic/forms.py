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

from dataclasses import dataclass, field

from .errors import ModelError

REAL = "real"
DECLARED = "declared"

# one shared instance per real signature handed out by QuadraticForm.real;
# forms are immutable, so callers can share them, and the table holds one
# entry per signature ever asked for
_REAL_FORMS: dict[tuple[int, int], "QuadraticForm"] = {}


@dataclass(frozen=True, order=True)
class QuadraticForm:
    """A nondegenerate quadratic form: real signature or declared token.

    is_real, dim and key are computed once, when the instance is made, and
    QuadraticForm.real returns one shared instance per signature.
    """

    kind: str
    pos: int = 0
    neg: int = 0
    ident: str = ""
    declared_dim: int = 0
    is_real: bool = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    # stable identifier: "(p,m)" for real forms, the token otherwise
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        real = self.kind == REAL
        object.__setattr__(self, "is_real", real)
        object.__setattr__(self, "dim", self.pos + self.neg if real else self.declared_dim)
        object.__setattr__(self, "key", f"({self.pos},{self.neg})" if real else self.ident)

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


@dataclass(frozen=True, order=True)
class ProjectiveQuadric:
    """The smooth projective quadric {q = 0}; dim = dim(q) - 2.

    {q = 0} and {-q = 0} are the same variety, so the identity of a real
    quadric is the sign-canonical signature (larger coordinate first).
    Dimension-1 forms give the empty quadric (dim -1).  dim, is_empty,
    canonical_form and key are computed once, when the instance is made.
    """

    form: QuadraticForm
    dim: int = field(init=False, repr=False, compare=False)
    is_empty: bool = field(init=False, repr=False, compare=False)
    canonical_form: QuadraticForm = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.form
        if q.is_real and q.neg > q.pos:
            canonical = q.negated()
        else:
            canonical = q
        object.__setattr__(self, "dim", q.dim - 2)
        object.__setattr__(self, "is_empty", q.dim < 2)
        object.__setattr__(self, "canonical_form", canonical)
        object.__setattr__(self, "key", canonical.key)

    def __repr__(self) -> str:
        return f"Quadric[{self.key}]"


@dataclass(frozen=True, order=True)
class Grassmannian:
    """G(Q, n): n-dimensional projective subspaces on the quadric Q."""

    quadric: ProjectiveQuadric
    planes: int

    def __post_init__(self) -> None:
        if self.planes < 0 or 2 * self.planes > self.quadric.dim:
            raise ValueError(
                f"G({self.quadric.key},{self.planes}): plane level out of range"
            )

    def __repr__(self) -> str:
        return f"G[{self.quadric.key},{self.planes}]"
