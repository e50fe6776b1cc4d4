"""Normal forms and algorithms on the Picard subgroup.

Elements are formal words in the generators e^q (plus, on declared models,
atomic det(Q) generators) together with an explicit Tate twist.  Two
independent equality routes exist:

* det-vector route (exact): the class vector of the word over
  indecomposable summand classes decides equality modulo Tate twists, and
  the base fingerprint entry then pins the twist itself.
* fingerprint route (model-relative for equality, exact for inequality):
  pointwise twist values over the lattice, plus a formal closure value
  computed from dimensions alone.

The two algorithms that need a separating lattice, relations and the real
basis, first call the lattice's separate() once on the forms whose values
they compare.  In the level model a real Witt index depends only on the
level, so separate adds one node for each level at which some index of
those forms can differ from its base value and that no node holds yet.  A
declared lattice is fixed and adds none.  The motivic-equivalence criterion
separates nothing: see motivically_equivalent.

Words already known are not rebuilt.  The lattice's memos["pic"] holds,
per lattice:

* ("det", form key, None or the flag's keys): the sorted word of det(Q) for
  a real quadric, stored once the step generators are registered in that
  lattice, so a hit skips no side effect; a refused det stores nothing;
* ("class", gen, key): the class vector of one atom as its registered
  decompositions give it, before the classes are resolved to their current
  roots (roots move when classes merge); a missing decomposition stores
  nothing, since it may be declared later.

One side of each cross-check never reads memos["pic"]: the class route of
relations_check (t_equivalent) and the Witt route of motivically_equivalent.
A wrong entry therefore shows up as a disagreement.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .decomp import (
    _on_roots,
    class_vector,
    parse_rost_kind,
    registered_decomposition,
    t_equivalent,
)
from .errors import DisagreementError, ModelError
from .forms import (
    Grassmannian,
    ProjectiveQuadric,
    QuadraticForm,
    pfister_real,
)
from .twists import TateTwist, ZERO_TWIST, phi_affine, phi_det, split_quadric_sum

GEN_E = "e"
GEN_DET = "det"

Atom = tuple[str, str]


def _entry_order(entry):
    """Sort key of a word entry (atom, coefficient): generator, then form key."""
    (gen, key), _ = entry
    return (gen, len(key), key)


def _form_sort_key(key: str):
    return (len(key), key)


class PicElement:
    """An element of the Picard subgroup, bound to one lattice."""

    __slots__ = ("model", "tate", "word")

    def __init__(self, model, tate: TateTwist = ZERO_TWIST, word=()):
        self.model = model
        self.tate = tate
        if not isinstance(word, dict):  # pairs: the powers of a repeated atom add up
            summed: dict = {}
            for atom, coeff in word:
                summed[atom] = summed.get(atom, 0) + coeff
            word = summed
        self.word = tuple(sorted(((a, c) for a, c in word.items() if c != 0), key=_entry_order))

    @classmethod
    def _of_word(cls, model, tate: TateTwist, word: tuple) -> "PicElement":
        """An element from a word that is already sorted and has no zero powers."""
        element = object.__new__(cls)
        element.model = model
        element.tate = tate
        element.word = word
        return element

    # ------------------------------------------------------------- algebra

    def _require_same_model(self, other: "PicElement") -> None:
        if self.model is not other.model:
            raise ModelError("elements over different lattices cannot be combined")

    def __mul__(self, other: "PicElement") -> "PicElement":
        self._require_same_model(other)
        tate = self.tate + other.tate
        if not other.word:
            return PicElement._of_word(self.model, tate, self.word)
        if not self.word:
            return PicElement._of_word(self.model, tate, other.word)
        merged = dict(self.word)
        for atom, coeff in other.word:
            merged[atom] = merged.get(atom, 0) + coeff
        return PicElement(self.model, tate, merged)

    def __pow__(self, k: int) -> "PicElement":
        word = tuple((a, k * c) for a, c in self.word) if k else ()
        return PicElement._of_word(self.model, k * self.tate, word)

    # -------------------------------------------------------------- values

    def _atom_closure(self, atom: Atom) -> TateTwist:
        gen, key = atom
        n = self.model.form(key).dim
        if gen == GEN_E:
            return TateTwist(n // 2, n)
        return split_quadric_sum(n - 2, n // 2)

    def value_at(self, token: str) -> TateTwist:
        return _evaluate(self.tate, _terms(self), token, self.model)

    def base_value(self) -> TateTwist:
        return self.value_at(self.model.base)

    def closure_value(self) -> TateTwist:
        """Formal twist value over the algebraic closure (all forms split)."""
        x, y = self.tate
        for atom, coeff in self.word:
            ax, ay = self._atom_closure(atom)
            x += coeff * ax
            y += coeff * ay
        return TateTwist(x, y)

    def fingerprint(self) -> dict[str, TateTwist]:
        """The twist value at every extension of the lattice, base included."""
        return {t: value for group, value in _sweep(self) for t in group}

    # ---------------------------------------------------------- det vector

    def _atom_class_vector(self, atom: Atom) -> tuple | None:
        """((class, kind), count) pairs of one atom, classes as registered."""
        gen, key = atom
        model = self.model
        memo = model.memos["pic"]
        memo_key = ("class", gen, key)
        got = memo.get(memo_key)
        if got is not None:
            return got
        form = model.form(key)
        try:
            if gen == GEN_DET:
                vec = class_vector([registered_decomposition(ProjectiveQuadric(form), model)])
            else:
                vec = class_vector(
                    [registered_decomposition(ProjectiveQuadric(model.prime_of(form)), model)]
                )
                vec.subtract(class_vector([registered_decomposition(ProjectiveQuadric(form), model)]))
        except ModelError:
            return None
        got = memo[memo_key] = tuple((cls_kind, n) for cls_kind, n in vec.items() if n != 0)
        return got

    def det_vector(self) -> Counter | None:
        """Z-vector over (canonical class, kind), or None if data is missing."""
        total: dict = {}
        for atom, coeff in self.word:
            vec = self._atom_class_vector(atom)
            if vec is None:
                return None
            for cls_kind, n in vec:
                total[cls_kind] = total.get(cls_kind, 0) + coeff * n
        return _on_roots(self.model, total.items())

    # ------------------------------------------------------------ equality

    def equality(self, other: "PicElement") -> "EqualityVerdict":
        self._require_same_model(other)
        diff = self * other**-1
        vec = diff.det_vector()
        if vec is not None:
            if vec:
                return EqualityVerdict(False, True, "class vectors differ")
            if diff.base_value():
                return EqualityVerdict(False, True, "Tate parts differ at the base")
            return EqualityVerdict(True, True, "class vector and base twist agree")
        if diff.closure_value():
            return EqualityVerdict(False, True, "closure twist values differ")
        differing = [min(group) for group, value in _sweep(diff) if value]
        if differing:
            return EqualityVerdict(False, True, f"twist values differ at {min(differing)}")
        return EqualityVerdict(
            True, False, "fingerprints agree on every registered extension"
        )

    # --------------------------------------------------------------- views

    def render(self) -> str:
        parts = []
        if self.tate or not self.word:
            parts.append(f"T{self.tate.render()}")
        for (gen, key), coeff in self.word:
            power = "" if coeff == 1 else f"^{coeff}"
            parts.append(f"{gen}[{key}]{power}")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"Pic({self.render()})"

    def to_json(self) -> dict:
        return {
            "tate": self.tate.to_json(),
            "word": [
                {"gen": gen, "form": key, "coeff": coeff}
                for (gen, key), coeff in self.word
            ],
        }


class EqualityVerdict(NamedTuple):
    equal: bool
    exact: bool
    reason: str


def _terms(element: PicElement) -> list[tuple]:
    """(evaluator, form or quadric, power) per atom of the word, each atom
    resolved once: phi_affine of the form for e^q, phi_det of its quadric
    for det(Q).  An atom whose form is not registered is refused here."""
    model = element.model
    return [(phi_affine, model.form(key), coeff) if gen == GEN_E
            else (phi_det, ProjectiveQuadric(model.form(key)), coeff)
            for (gen, key), coeff in element.word]


def _evaluate(tate: TateTwist, terms: list[tuple], token: str, model) -> TateTwist:
    """The Tate part plus each term's value at the token, times its power."""
    x, y = tate
    for evaluator, arg, coeff in terms:
        ax, ay = evaluator(arg, token, model)
        x += coeff * ax
        y += coeff * ay
    return TateTwist(x, y)


def _sweep(element: PicElement):
    """(group, value) per oracle group, evaluating the element at one token of
    each; the word's atoms are resolved once for the whole sweep."""
    model = element.model
    terms = _terms(element)
    for group in model.token_groups():
        yield group, _evaluate(element.tate, terms, group[0], model)


# ---------------------------------------------------------------- builders


def identity(model) -> PicElement:
    return PicElement(model)


def tate_element(model, twist: TateTwist) -> PicElement:
    return PicElement(model, tate=twist)


def generator_e(q: QuadraticForm, model) -> PicElement:
    """The generator e^q (the shifted reduced motive of {q = 1})."""
    if q.is_real:
        model.register_form(q)
    elif not model.holds(q):
        raise ModelError(f"declared form {q.key} is not registered")
    return PicElement._of_word(model, ZERO_TWIST, (((GEN_E, q.key), 1),))


def _subforms(form: QuadraticForm) -> list[QuadraticForm]:
    """A real form's codimension-1 subforms, positive-drop first; none at dimension 1."""
    pos, neg = form.pos, form.neg
    if pos + neg < 2:
        return []
    if pos and neg:
        return [QuadraticForm.real(pos - 1, neg), QuadraticForm.real(pos, neg - 1)]
    return [QuadraticForm.real(pos - 1, 0) if pos else QuadraticForm.real(0, neg - 1)]


def det(quadric: ProjectiveQuadric, model, flag=None) -> PicElement:
    """det(Q): product of step generators along a complete flag of subquadrics.

    The real backend steps down to dimension 1 through codimension-1
    subforms: the next flag entry, or else the one dropping the larger
    signature coordinate (ties drop a positive one).  A step to `lower` adds
    the generator e^(lower.neg, lower.pos) after a positive drop and e^lower
    after a negative one.  Any valid flag yields the same element.  Declared
    quadrics carry no subform structure, so their det stays atomic.
    """
    form = quadric.form
    if not form.is_real:
        if flag is not None:
            raise ModelError("declared quadrics admit no flag data")
        if not model.holds(form):
            raise ModelError(f"declared form {form.key} is not registered")
        return PicElement(model, word={(GEN_DET, form.key): 1})
    if quadric.is_empty:
        if flag:
            raise ModelError("the empty quadric admits no flag")
        return identity(model)
    chain = list(flag) if flag is not None else None
    if chain is not None:
        _validate_flag(form, chain)
    memo = model.memos["pic"]
    memo_key = ("det", form.key, None if chain is None else tuple(e.key for e in chain))
    known = memo.get(memo_key)
    if known is not None:
        return PicElement._of_word(model, ZERO_TWIST, known)
    word: Counter = Counter()
    steps = iter(chain or ())
    current = form
    while current.dim >= 2:
        lower = next(steps, None)
        if lower is None:
            lower = _subforms(current)[0 if current.pos >= current.neg else -1]
        gen = QuadraticForm.real(lower.neg, lower.pos) if lower.pos < current.pos else lower
        model.register_form(gen)
        word[(GEN_E, gen.key)] += 1
        current = lower
    element = PicElement(model, word=word)
    memo[memo_key] = element.word
    return element


def _validate_flag(top: QuadraticForm, chain) -> None:
    current = top
    for entry in chain:
        if not entry.is_real:
            raise ModelError("flags are chains of real subforms")
        if entry not in _subforms(current):
            raise ModelError(
                f"flag entry {entry.key} is not a codimension-1 subform of {current.key}"
            )
        current = entry
    if current.dim > 2:
        raise ModelError(
            f"flag is not complete: it stops at dimension {current.dim}"
        )


def all_flags(form: QuadraticForm):
    """Every complete signature-decrement flag below a real form (as chains)."""
    if form.dim <= 1:
        yield []
        return
    for lower in _subforms(form):
        for rest in all_flags(lower):
            yield [lower] + rest


# ------------------------------------------------------------- inverse law


class InverseCheckReport(NamedTuple):
    form: str
    expected: TateTwist
    failures: tuple[tuple[str, TateTwist], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "expected": self.expected.to_json(),
            "ok": self.ok,
            "failures": [
                {"extension": t, "value": v.to_json()} for t, v in self.failures
            ],
        }


def inverse_identity_check(q: QuadraticForm, model) -> InverseCheckReport:
    """Verify e^q * e^{q'} is the constant Tate twist (n)[2n+1], n = dim(q)."""
    q_prime = model.prime_of(q)
    product = generator_e(q, model) * generator_e(q_prime, model)
    expected = TateTwist(q.dim, 2 * q.dim + 1)
    failures = sorted(
        (token, value)
        for group, value in _sweep(product)
        if value != expected
        for token in group
    )
    return InverseCheckReport(q.key, expected, tuple(failures))


# ---------------------------------------------------------- independence


class CertificateStep(NamedTuple):
    form: str
    witness: str
    twist: TateTwist

    def to_json(self) -> dict:
        return {"form": self.form, "witness": self.witness, "twist": self.twist.to_json()}


class Certificate(NamedTuple):
    steps: tuple[CertificateStep, ...]

    independent = True

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(s.form for s in self.steps)

    def to_json(self) -> dict:
        return {"independent": True, "order": [s.to_json() for s in self.steps]}


class Refusal(NamedTuple):
    reasons: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]

    independent = False

    def to_json(self) -> dict:
        return {
            "independent": False,
            "refused": True,
            "reasons": list(self.reasons),
            "pairs": [list(p) for p in self.pairs],
        }


def independent(qs, model):
    """Certify linear independence of {e^q} or refuse with the violated
    hypothesis.

    Preconditions are checked, never assumed: every prime must be
    anisotropic over the base, and the primes must be pairwise not stably
    birational (compared through their anisotropic kernels, so degenerate
    families such as {q, q + hyperbolic} name the offending pair).  A
    refusal is not a judgement of dependence.
    """
    forms = list(qs)
    reasons: list[str] = []
    pairs: list[tuple[str, str]] = []
    primes = [model.prime_of(q) for q in forms]
    kernels = [model.anisotropic_part(p, model.base) for p in primes]
    for q, p in zip(forms, primes):
        if model.witt_index(p, model.base) > 0:
            reasons.append(f"prime {p.key} of {q.key} is isotropic over the base")
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if _kernels_equivalent(model, kernels[i], kernels[j]):
                pairs.append((forms[i].key, forms[j].key))
                reasons.append(
                    f"primes of {forms[i].key} and {forms[j].key} are stably birational"
                )
    if reasons:
        return Refusal(tuple(reasons), tuple(pairs))

    witness = {
        q.key: model.extend_by_function_field(model.base, ProjectiveQuadric(p))
        for q, p in zip(forms, primes)
    }
    edges: dict[str, set[str]] = {q.key: set() for q in forms}
    for qi in forms:
        for qj, pj in zip(forms, primes):
            if qi.key != qj.key and model.witt_index(pj, witness[qi.key]) > 0:
                edges[qi.key].add(qj.key)
    by_key = {q.key: q for q in forms}

    remaining = set(edges)
    steps = []
    while remaining:
        sinks = sorted(
            (k for k in remaining if not edges[k] & remaining),
            key=_form_sort_key,
        )
        if not sinks:
            return Refusal(
                (f"rational-map graph has a cycle among {sorted(remaining)}",), ()
            )
        key = sinks[0]
        q = by_key[key]
        twist = phi_affine(q, witness[key], model) - phi_affine(q, model.base, model)
        if not twist:
            raise DisagreementError(
                f"witness {witness[key]} fails to move e^{key}: broken model"
            )
        steps.append(CertificateStep(key, witness[key], twist))
        remaining.discard(key)
    return Certificate(tuple(steps))


def _kernels_equivalent(model, a: QuadraticForm | None, b: QuadraticForm | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    qa, qb = ProjectiveQuadric(a), ProjectiveQuadric(b)
    if qa.key == qb.key:
        return True
    if a.dim < 2 or b.dim < 2:
        return False
    # synthetic kernels of isotropic declared forms have no function field in
    # the table; their isotropy is already a named violation on its own
    for kernel in (a, b):
        if not kernel.is_real and not model.holds(kernel):
            return False
    return model.stably_birational(Grassmannian(qa, 0), Grassmannian(qb, 0))


# ---------------------------------------------------------------- relations


class RelationsVerdict(NamedTuple):
    fingerprint_equal_mod_tate: bool
    tate_equivalent: bool

    def to_json(self) -> dict:
        return self._asdict()


def det_product(quadrics, model) -> PicElement:
    out = identity(model)
    for quadric in quadrics:
        out = out * det(quadric, model)
    return out


def relations_check(ps, qs, model) -> RelationsVerdict:
    """Cross-check the two relation criteria for det-products.

    (1) fingerprint equality modulo one constant Tate twist: the quotient
    x * y^-1 of the two det-products, evaluated once per oracle group, takes
    one value everywhere and that value is its formal closure value;
    (2) Tate-shift equivalence of the registered decompositions.  The two
    verdicts must agree; if they do not, the model or a decomposition is
    broken and that is a hard error.
    """
    ps, qs = list(ps), list(qs)
    decs_p = [registered_decomposition(P, model) for P in ps]
    decs_q = [registered_decomposition(Q, model) for Q in qs]
    model.separate([P.canonical_form for P in ps + qs])
    quotient = det_product(ps, model) * det_product(qs, model) ** -1
    fp_verdict = {value for _, value in _sweep(quotient)} == {quotient.closure_value()}
    tequiv = t_equivalent(decs_p, decs_q, model)
    if fp_verdict != tequiv:
        raise DisagreementError(
            "relation criteria disagree "
            f"(fingerprints: {fp_verdict}, summand classes: {tequiv}); "
            "the model or a registered decomposition is broken"
        )
    return RelationsVerdict(fp_verdict, tequiv)


# ---------------------------------------------------- motivic equivalence


def motivically_equivalent(p: ProjectiveQuadric, q: ProjectiveQuadric, model) -> bool:
    """Same motive: identical Witt profiles, cross-checked against det equality.

    The Witt route compares the two forms' indices at one token per oracle
    group, then the dimensions.  It separates nothing: over R two quadrics of
    equal dimension and equal base Witt index are the same quadric, so the
    base cell already decides, and a declared lattice is fixed.  The cells
    are read before the dimensions, so a form of the other backend is always
    refused by the oracle.
    """
    witt_route = all(
        model.witt_index(p.canonical_form, group[0])
        == model.witt_index(q.canonical_form, group[0])
        for group in model.token_groups()
    ) and p.dim == q.dim
    det_route = det(p, model).equality(det(q, model)).equal
    if witt_route != det_route:
        raise DisagreementError(
            f"equivalence criteria disagree for {p.key} vs {q.key} "
            f"(profiles: {witt_route}, det: {det_route})"
        )
    return witt_route


# ------------------------------------------------------------- real basis


class BasisExpansion(NamedTuple):
    """Coordinates over the definite Pfister generators, plus a Tate twist."""

    coords: tuple[tuple[int, int], ...]
    tate: TateTwist

    def coefficient(self, r: int) -> int:
        return dict(self.coords).get(r, 0)

    def to_json(self) -> dict:
        return {
            "coords": [{"fold": r, "coeff": c} for r, c in self.coords],
            "tate": self.tate.to_json(),
        }


def basis_real(x: PicElement, maxr: int) -> BasisExpansion:
    """Expand x over {e^(2^r * <1>)}, r <= maxr, by reading its class vector.

    Over R the basis is diagonal in the Rost classes: e^(2^r * <1>) has the
    class vector -[rost:r], since (2^r, 0) decomposes into 2^(r-1) summands
    of kind rost:r and its prime (2^r, 1), of base Witt index 1, into
    2^(r-1) - 1 of them, whatever the lattice.  So the coordinate at fold r
    is minus the count of rost:r in x's class vector.  The expansion is then
    checked by a fingerprint round trip on the Witt-index route, over a
    lattice separated for the forms whose values the quotient reads: x's
    atoms, their primes and the Pfister forms of the expansion's folds (a
    Pfister prime needs no level of its own).  The quotient of x by the
    expansion vanishes at every oracle group, so a wrong expansion cannot
    be returned.
    """
    model = x.model
    # a declared lattice refuses the real Pfister forms, even where maxr asks
    # for none; a real lattice answers the read and registers nothing
    model.witt_index(pfister_real(1), model.base)
    vec = x.det_vector()
    if vec is None:
        raise ModelError("missing decompositions for the basis expansion")
    coords: dict[int, int] = {}
    for (cls, kind), n in vec.items():
        r = parse_rost_kind(kind)
        if r is None:
            raise ModelError(f"non-Rost class {cls.render()} in a real element")
        coords[r] = -n
    top = max(coords, default=maxr)
    if top > maxr:
        raise ModelError(f"insufficient maxr: class of fold {top} present, maxr = {maxr}")
    expanded = identity(model)
    for r in sorted(coords):
        expanded = expanded * generator_e(pfister_real(r), model) ** coords[r]
    atom_forms = [model.form(key) for (_, key), _ in x.word]
    model.separate([*atom_forms, *map(model.prime_of, atom_forms),
                    *map(pfister_real, coords)])
    twist = x.base_value() - expanded.base_value()
    residue = x * (expanded * tate_element(model, twist)) ** -1
    if any(value for _, value in _sweep(residue)):
        raise DisagreementError("basis expansion fails the fingerprint round-trip")
    return BasisExpansion(tuple(sorted(coords.items())), twist)
