"""Indecomposable summand classes and motivic decompositions of quadrics.

Summand classes are keyed by the quadratic Grassmannian of the lowest Tate
constituent and identified up to Tate shift; two keys name the same class
exactly when their Grassmannians are stably birational.  Canonical
representatives come from a union-find over that oracle with the smallest
key as root, so class ids are reproducible across runs.

Real quadrics decompose by the excellent-form recursion: strip the base
hyperbolic part as Tate pairs, then peel Pfister-neighbour blocks of rank-2
summands (kind rost:r, the two constituents sitting at T and
T(2^(r-1)-1)[2^r-2]), recursing on the complementary dimension.  The
recursion is not assumed correct: the Witt-consistency invariant ties it to
the level model at every extension.  That check lives in the test suite
(tests/test_decomp.py), with its per-summand Tate counts and twist ratios
in tests/summand_reference.py.

Two registries live in the lattice's memos: "decompositions", keyed by
(quadric key, is_real), and "classes", the union-find parents.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import ModelError
from .forms import (
    Grassmannian,
    ProjectiveQuadric,
    QuadraticForm,
    pfister_real,
)
from .modelfile import decomposition_entries
from .twists import TateTwist

ROST = "rost"


class ClassKey(NamedTuple):
    """(quadric id, plane level) naming a quadratic Grassmannian."""

    quadric: str
    planes: int

    @property
    def sort_key(self) -> tuple:
        return (len(self.quadric), self.quadric, self.planes)

    def render(self) -> str:
        return f"{self.quadric}#{self.planes}"

    def to_json(self) -> dict:
        return {"quadric": self.quadric, "planes": self.planes}


def _find(model, key: ClassKey) -> ClassKey:
    parents = model.memos["classes"]
    root = key
    while parents.get(root, root) != root:
        root = parents[root]
    while parents.get(key, key) != key:
        parents[key], key = root, parents[key]
    return root


def _grassmannian(model, key: ClassKey) -> Grassmannian:
    return Grassmannian(ProjectiveQuadric(model.form(key.quadric)), key.planes)


def canonical_class(model, key: ClassKey) -> ClassKey:
    """Resolve a Grassmannian key to the root key of its class in this model.

    New keys are compared against every existing root through the
    stable-birational oracle (smallest-key roots win the merge).
    """
    parents = model.memos["classes"]
    if key not in parents:
        roots = sorted({_find(model, k) for k in list(parents)}, key=lambda k: k.sort_key)
        mine = _grassmannian(model, key)
        # joins after the oracle answers, so a refused key leaves no root; unmatched, it is a root
        match = next((root for root in roots
                      if model.stably_birational(mine, _grassmannian(model, root))), key)
        keep, drop = (key, match) if key.sort_key < match.sort_key else (match, key)
        parents[key] = key
        parents[drop] = keep
    return _find(model, key)


def parse_rost_kind(kind: str) -> int | None:
    """The degree r of a summand kind "rost:r"; None for any other kind."""
    head, sep, degree = kind.partition(":")
    return int(degree) if head == ROST and sep else None


class Summand(NamedTuple):
    """One indecomposable anisotropic summand instance: class, shift, kind."""

    cls: ClassKey
    shift: int
    kind: str

    def to_json(self) -> dict:
        return {"class": self.cls.to_json(), "shift": self.shift, "kind": self.kind}


class Decomposition(NamedTuple):
    """Tate summands plus anisotropic rank-2 summands of one quadric motive."""

    quadric: str
    tates: tuple[TateTwist, ...]
    summands: tuple[Summand, ...]

    @staticmethod
    def make(quadric: str, tates, summands) -> "Decomposition":
        return Decomposition(quadric, tuple(sorted(tates)), tuple(sorted(summands)))

    def rank(self) -> int:
        return 2 * len(self.summands) + len(self.tates)

    def to_json(self) -> dict:
        return {
            "tates": [t.to_json() for t in self.tates],
            "summands": [s.to_json() for s in self.summands],
        }

    @staticmethod
    def from_json(quadric: str, data: dict) -> "Decomposition":
        """The decomposition of data that modelfile.decomposition_entries accepts."""
        return Decomposition.make(
            quadric,
            [TateTwist.from_json(t) for t in data.get("tates") or []],
            [Summand(ClassKey(s["class"]["quadric"], s["class"]["planes"]), s["shift"], s["kind"])
             for s in data.get("summands") or []],
        )


def _excellent_blocks(model, dim: int, shift: int) -> list[Summand]:
    """Rost blocks of an anisotropic definite form of the given dimension."""
    out = []
    while dim >= 2:
        r = (dim - 1).bit_length()
        first_witt = dim - (1 << (r - 1))
        # the class quadric joins the lattice's forms, so a snapshot of the
        # lattice can declare this decomposition back
        pfister = pfister_real(r)
        model.register_form(pfister, with_prime=False)
        cls = canonical_class(model, ClassKey(ProjectiveQuadric(pfister).key, 0))
        for i in range(first_witt):
            out.append(Summand(cls, shift + i, f"{ROST}:{r}"))
        shift += first_witt
        dim = (1 << r) - dim
    return out


def decompose_real(q: QuadraticForm, model) -> Decomposition:
    """Decompose the motive of the real quadric {q = 0}; registers the result.

    Registration is idempotent per quadric.  A declared lattice refuses the
    real form.
    """
    if not q.is_real or q.dim < 2:
        raise ModelError(f"decompose_real needs a real form of dim >= 2, got {q.key}")
    quadric = ProjectiveQuadric(q)
    registry = model.memos["decompositions"]
    existing = registry.get((quadric.key, True))
    if existing is not None:
        return existing
    base_witt = model.witt_index(q, model.base)
    m = quadric.dim
    tates = []
    for i in range(base_witt):
        tates.append(TateTwist(i, 2 * i))
        tates.append(TateTwist(m - i, 2 * (m - i)))
    summands = _excellent_blocks(model, q.dim - 2 * base_witt, base_witt)
    result = Decomposition.make(quadric.key, tates, summands)
    _check_rank(result, q.dim)
    registry[(quadric.key, True)] = result
    return result


def _check_rank(dec: Decomposition, form_dim: int) -> None:
    # the quadric of a form of dimension n has a motive of rank n, or n - 1 for odd n
    expected = form_dim - form_dim % 2
    if dec.rank() != expected:
        raise ModelError(
            f"decomposition of {dec.quadric} covers rank {dec.rank()}, "
            f"motive has rank {expected}"
        )


def declare_decompositions(table, model) -> None:
    """Declare a --decomps table {form id: decomposition} on a declared lattice.

    The checks run in this order, each raising a ModelError: the nesting
    bound, then that the table is a JSON object, then each entry in sorted
    id order: its shape, the lookup of its form, its declaration.  Each
    entry registers externally supplied summand data for a declared quadric:
    classes are resolved through the stable-birational oracle, and the rank
    bookkeeping must close exactly.  Redeclaring with identical data is a
    no-op, conflicting data is an error.
    """
    for form_id, data in decomposition_entries(table):
        # a malformed entry is reported before its id is looked up
        _declare(model.form(form_id), data, model)


def _declare(q: QuadraticForm, data: dict, model) -> Decomposition:
    """Declare data, already checked against the shape, for the model's form q."""
    if q.is_real:  # the id names a form of a real lattice
        raise ModelError(f"decompositions are declared for declared forms only, got real {q.key}")
    quadric = ProjectiveQuadric(q)
    dec = Decomposition.from_json(quadric.key, data)
    resolved = []
    for s in dec.summands:
        try:
            model.form(s.cls.quadric)
        except ModelError:
            raise ModelError(f"summand class over unknown quadric {s.cls.quadric!r}") from None
        try:
            resolved.append(Summand(canonical_class(model, s.cls), s.shift, s.kind))
        except ValueError as exc:  # Grassmannian refuses the plane level
            raise ModelError(str(exc)) from None
    result = Decomposition.make(quadric.key, dec.tates, resolved)
    _check_rank(result, q.dim)
    registry = model.memos["decompositions"]
    existing = registry.get((quadric.key, False))
    if existing is not None:
        if existing != result:
            raise ModelError(f"conflicting decomposition redeclared for {quadric.key}")
        return existing
    registry[(quadric.key, False)] = result
    return result


def registered_decomposition(quadric: ProjectiveQuadric, model) -> Decomposition:
    """Fetch (or, for a real quadric, compute) the decomposition of M(Q)."""
    if quadric.is_empty:
        return Decomposition.make(quadric.key, [], [])
    # is_real keeps a declared id that spells a real key off the real entry
    real = quadric.form.is_real
    existing = model.memos["decompositions"].get((quadric.key, real))
    if existing is not None:
        return existing
    if real:
        return decompose_real(quadric.canonical_form, model)
    raise ModelError(f"no declared decomposition registered for {quadric.key}")


def class_vector(decs) -> Counter:
    """Multiset of (canonical class, kind) over anisotropic summands."""
    counts: Counter = Counter()
    for dec in decs:
        for s in dec.summands:
            counts[(s.cls, s.kind)] += 1
    return counts


def _on_roots(model, counts) -> Counter:
    """Re-key (class, kind) counts onto the classes' current roots.

    A key that was a root when a decomposition was registered can become a
    child later, when a smaller key joins its class; counts of keys that
    now share a root are summed, and zero sums dropped (negative counts are
    kept).
    """
    out: Counter = Counter()
    for (cls, kind), n in counts:
        out[(_find(model, cls), kind)] += n
    return Counter({key: n for key, n in out.items() if n != 0})


def t_equivalent(a, b, model) -> bool:
    """Tate-shift equivalence: same multiset of summand classes, Tates ignored."""
    va, vb = class_vector(a), class_vector(b)
    return _on_roots(model, va.items()) == _on_roots(model, vb.items())
