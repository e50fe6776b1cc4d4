"""The value types against the frozen dataclasses they were, kept as references.

Each value type of the engine is a typing.NamedTuple or a slotted class.  The
old definitions below are copied from the dataclasses they replace, with only
the methods that were rewritten, and each new class is pinned against its
reference: equality, hashing, order where it was declared, repr, the fields
and derived attributes, and refused assignment.
"""

import copy
import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

from quadpic import (
    BasisExpansion,
    Certificate,
    ClassKey,
    Decomposition,
    EqualityVerdict,
    Extension,
    Grassmannian,
    InverseCheckReport,
    ProjectiveQuadric,
    ProjectorTower,
    QuadraticForm,
    Refusal,
    RelationsVerdict,
    Summand,
    TateTwist,
    ValidationReport,
    Violation,
    active_index,
    basis_real,
    build_tower,
    declared_lattice_from_data,
    decompose_real,
    det,
    generator_e,
    independent,
    inverse_identity_check,
    lattice_to_data,
    motivically_equivalent,
    real_lattice,
    relations_check,
)
from quadpic.acceptance import CriterionResult, real_forms
from quadpic.decomp import declare_decompositions
from quadpic.fields import Construction
from quadpic.pic import CertificateStep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ------------------------------------------------------- the old definitions


@dataclasses.dataclass(frozen=True, order=True)
class OldQuadraticForm:
    kind: str
    pos: int = 0
    neg: int = 0
    ident: str = ""
    declared_dim: int = 0
    is_real: bool = dataclasses.field(init=False, repr=False, compare=False)
    dim: int = dataclasses.field(init=False, repr=False, compare=False)
    key: str = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        real = self.kind == "real"
        object.__setattr__(self, "is_real", real)
        object.__setattr__(self, "dim", self.pos + self.neg if real else self.declared_dim)
        object.__setattr__(self, "key", f"({self.pos},{self.neg})" if real else self.ident)

    def negated(self):
        return OldQuadraticForm("real", self.neg, self.pos)

    def __repr__(self) -> str:
        return f"QuadraticForm[{self.key}]"


@dataclasses.dataclass(frozen=True, order=True)
class OldProjectiveQuadric:
    form: OldQuadraticForm
    dim: int = dataclasses.field(init=False, repr=False, compare=False)
    is_empty: bool = dataclasses.field(init=False, repr=False, compare=False)
    canonical_form: OldQuadraticForm = dataclasses.field(init=False, repr=False, compare=False)
    key: str = dataclasses.field(init=False, repr=False, compare=False)

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


@dataclasses.dataclass(frozen=True, order=True)
class OldGrassmannian:
    quadric: OldProjectiveQuadric
    planes: int

    def __post_init__(self) -> None:
        if self.planes < 0 or 2 * self.planes > self.quadric.dim:
            raise ValueError(
                f"G({self.quadric.key},{self.planes}): plane level out of range"
            )

    def __repr__(self) -> str:
        return f"G[{self.quadric.key},{self.planes}]"


@dataclasses.dataclass(frozen=True)
class OldExtension:
    token: str
    parent: str | None
    construction: str


@dataclasses.dataclass(frozen=True)
class OldConstruction:
    kind: str
    form: str = ""
    planes: int = 0
    parts: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class OldViolation:
    family: str
    form: str
    extension: str
    detail: str

    def render(self) -> str:
        return f"[{self.family}] form {self.form} at {self.extension}: {self.detail}"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "form": self.form,
            "extension": self.extension,
            "detail": self.detail,
        }


@dataclasses.dataclass
class OldValidationReport:
    violations: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(v.render() for v in self.violations)


@dataclasses.dataclass(frozen=True, order=True)
class OldClassKey:
    quadric: str
    planes: int


@dataclasses.dataclass(frozen=True, order=True)
class OldSummand:
    cls: OldClassKey
    shift: int
    kind: str


@dataclasses.dataclass(frozen=True)
class OldDecomposition:
    quadric: str
    tates: tuple
    summands: tuple


@dataclasses.dataclass(frozen=True)
class OldEqualityVerdict:
    equal: bool
    exact: bool
    reason: str


@dataclasses.dataclass(frozen=True)
class OldInverseCheckReport:
    form: str
    expected: TateTwist
    failures: tuple


@dataclasses.dataclass(frozen=True)
class OldCertificateStep:
    form: str
    witness: str
    twist: TateTwist


@dataclasses.dataclass(frozen=True)
class OldCertificate:
    steps: tuple

    @property
    def independent(self) -> bool:
        return True


@dataclasses.dataclass(frozen=True)
class OldRefusal:
    reasons: tuple
    pairs: tuple

    @property
    def independent(self) -> bool:
        return False


@dataclasses.dataclass(frozen=True)
class OldRelationsVerdict:
    fingerprint_equal_mod_tate: bool
    tate_equivalent: bool

    def to_json(self) -> dict:
        return {
            "fingerprint_equal_mod_tate": self.fingerprint_equal_mod_tate,
            "tate_equivalent": self.tate_equivalent,
        }


@dataclasses.dataclass(frozen=True)
class OldBasisExpansion:
    coords: tuple
    tate: TateTwist


@dataclasses.dataclass(frozen=True)
class OldProjectorTower:
    form: OldQuadraticForm
    entries: tuple


@dataclasses.dataclass(frozen=True)
class OldCriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


NEW = SimpleNamespace(
    QuadraticForm=QuadraticForm, ProjectiveQuadric=ProjectiveQuadric, Grassmannian=Grassmannian,
    Extension=Extension, Construction=Construction, Violation=Violation,
    ValidationReport=ValidationReport, ClassKey=ClassKey, Summand=Summand,
    Decomposition=Decomposition, EqualityVerdict=EqualityVerdict,
    InverseCheckReport=InverseCheckReport, CertificateStep=CertificateStep,
    Certificate=Certificate, Refusal=Refusal, RelationsVerdict=RelationsVerdict,
    BasisExpansion=BasisExpansion, ProjectorTower=ProjectorTower,
    CriterionResult=CriterionResult,
)
OLD = SimpleNamespace(**{name: globals()[f"Old{name}"] for name in vars(NEW)})
# a dataclass repr names its class by __qualname__: the references repr as the
# classes they stand for, nested values included
for _name, _cls in vars(OLD).items():
    _cls.__qualname__ = _name

# the classes that were declared with order=True
ORDERED = {"QuadraticForm", "ProjectiveQuadric", "Grassmannian", "ClassKey", "Summand"}


def _form(ns, p, m):
    return ns.QuadraticForm("real", p, m)


def _declared(ns, ident, dim):
    return ns.QuadraticForm("declared", ident=ident, declared_dim=dim)


def _grass(ns, p, m, planes):
    return ns.Grassmannian(ns.ProjectiveQuadric(_form(ns, p, m)), planes)


def _summand(ns, quadric, planes, shift, kind):
    return ns.Summand(ns.ClassKey(quadric, planes), shift, kind)


def _step(ns, form, x):
    return ns.CertificateStep(form, "base/" + form, TateTwist(x, 2 * x))


# sample values per class, each built the same way from either namespace;
# every list holds two equal values made apart
SAMPLES = {
    "QuadraticForm": [
        lambda ns: _form(ns, 2, 1), lambda ns: _form(ns, 1, 2), lambda ns: _form(ns, 2, 1),
        lambda ns: _form(ns, 0, 1), lambda ns: _form(ns, 10, 0),
        lambda ns: _declared(ns, "a", 3), lambda ns: _declared(ns, "a", 4),
        lambda ns: _declared(ns, "(2,1)", 3),
    ],
    "ProjectiveQuadric": [
        lambda ns: ns.ProjectiveQuadric(_form(ns, 2, 1)),
        lambda ns: ns.ProjectiveQuadric(_form(ns, 1, 2)),
        lambda ns: ns.ProjectiveQuadric(_form(ns, 2, 1)),
        lambda ns: ns.ProjectiveQuadric(_form(ns, 0, 1)),
        lambda ns: ns.ProjectiveQuadric(_declared(ns, "a", 3)),
    ],
    "Grassmannian": [
        lambda ns: _grass(ns, 3, 0, 0), lambda ns: _grass(ns, 3, 0, 0),
        lambda ns: _grass(ns, 4, 0, 1), lambda ns: _grass(ns, 4, 0, 0),
        lambda ns: _grass(ns, 0, 4, 1), lambda ns: _grass(ns, 1, 3, 0),
    ],
    "Extension": [
        lambda ns: ns.Extension("base", None, "base"),
        lambda ns: ns.Extension("a", "base", "ff:(2,0)"),
        lambda ns: ns.Extension("a", "base", "ff:(2,0)"),
        lambda ns: ns.Extension("a", None, "join:base|b"),
    ],
    "Construction": [
        lambda ns: ns.Construction("base"), lambda ns: ns.Construction(""),
        lambda ns: ns.Construction("ff", form="(2,0)"),
        lambda ns: ns.Construction("gff", "(3,0)", 1),
        lambda ns: ns.Construction("gff", "(3,0)", 1),
        lambda ns: ns.Construction("join", parts=("a", "b")),
    ],
    "Violation": [
        lambda ns: ns.Violation("ceiling", "(2,0)", "base", "i_W = 3 outside [0, 1]"),
        lambda ns: ns.Violation("ceiling", "(2,0)", "base", "i_W = 3 outside [0, 1]"),
        lambda ns: ns.Violation("monotonicity", "(2,0)", "base/(3,0)", "drops"),
    ],
    "ValidationReport": [
        lambda ns: ns.ValidationReport([]),
        lambda ns: ns.ValidationReport([ns.Violation("table", "a", "b", "c")]),
        lambda ns: ns.ValidationReport([ns.Violation("table", "a", "b", "c")]),
        lambda ns: ns.ValidationReport([ns.Violation("table", "a", "b", "c"),
                                        ns.Violation("ceiling", "a", "b", "d")]),
    ],
    "ClassKey": [
        lambda ns: ns.ClassKey("(3,0)", 0), lambda ns: ns.ClassKey("(3,0)", 1),
        lambda ns: ns.ClassKey("(10,0)", 0), lambda ns: ns.ClassKey("(3,0)", 0),
        lambda ns: ns.ClassKey("a", 0),
    ],
    "Summand": [
        lambda ns: _summand(ns, "(3,0)", 0, 0, "rost:2"),
        lambda ns: _summand(ns, "(3,0)", 0, 1, "rost:2"),
        lambda ns: _summand(ns, "(8,0)", 0, 0, "rost:4"),
        lambda ns: _summand(ns, "(3,0)", 0, 0, "rost:2"),
        lambda ns: _summand(ns, "(3,0)", 1, 0, "x"),
        lambda ns: _summand(ns, "(10,0)", 0, 0, "x"),
    ],
    "Decomposition": [
        lambda ns: ns.Decomposition("(3,0)", (), (_summand(ns, "(3,0)", 0, 0, "rost:2"),)),
        lambda ns: ns.Decomposition("(3,0)", (), (_summand(ns, "(3,0)", 0, 0, "rost:2"),)),
        lambda ns: ns.Decomposition("(2,2)", (TateTwist(0, 0), TateTwist(2, 4)), ()),
    ],
    "EqualityVerdict": [
        lambda ns: ns.EqualityVerdict(True, True, "class vector and base twist agree"),
        lambda ns: ns.EqualityVerdict(True, True, "class vector and base twist agree"),
        lambda ns: ns.EqualityVerdict(False, True, "class vectors differ"),
        lambda ns: ns.EqualityVerdict(True, False, "fingerprints agree"),
    ],
    "InverseCheckReport": [
        lambda ns: ns.InverseCheckReport("(2,0)", TateTwist(2, 5), ()),
        lambda ns: ns.InverseCheckReport("(2,0)", TateTwist(2, 5), ()),
        lambda ns: ns.InverseCheckReport("(2,0)", TateTwist(2, 5), (("base", TateTwist(1, 1)),)),
    ],
    "CertificateStep": [
        lambda ns: _step(ns, "(0,1)", 0), lambda ns: _step(ns, "(0,1)", 0),
        lambda ns: _step(ns, "(0,2)", 1),
    ],
    "Certificate": [
        lambda ns: ns.Certificate(()),
        lambda ns: ns.Certificate((_step(ns, "(0,1)", 0), _step(ns, "(0,2)", 1))),
        lambda ns: ns.Certificate((_step(ns, "(0,1)", 0), _step(ns, "(0,2)", 1))),
    ],
    "Refusal": [
        lambda ns: ns.Refusal((), ()),
        lambda ns: ns.Refusal(("stably birational",), (("(0,2)", "(1,3)"),)),
        lambda ns: ns.Refusal(("stably birational",), (("(0,2)", "(1,3)"),)),
    ],
    "RelationsVerdict": [
        lambda ns: ns.RelationsVerdict(True, True), lambda ns: ns.RelationsVerdict(True, False),
        lambda ns: ns.RelationsVerdict(True, True), lambda ns: ns.RelationsVerdict(False, False),
    ],
    "BasisExpansion": [
        lambda ns: ns.BasisExpansion(((1, 2), (3, -1)), TateTwist(0, 0)),
        lambda ns: ns.BasisExpansion((), TateTwist(1, 1)),
        lambda ns: ns.BasisExpansion(((1, 2), (3, -1)), TateTwist(0, 0)),
    ],
    "ProjectorTower": [
        lambda ns: ns.ProjectorTower(_form(ns, 2, 0), (_grass(ns, 1, 2, 0), _grass(ns, 2, 0, 0))),
        lambda ns: ns.ProjectorTower(_form(ns, 2, 0), (_grass(ns, 1, 2, 0), _grass(ns, 2, 0, 0))),
        lambda ns: ns.ProjectorTower(_form(ns, 0, 2), (_grass(ns, 3, 0, 0), _grass(ns, 0, 2, 0))),
    ],
    "CriterionResult": [
        lambda ns: ns.CriterionResult(1, "two-oracle agreement", True, "ok"),
        lambda ns: ns.CriterionResult(1, "two-oracle agreement", True, "ok"),
        lambda ns: ns.CriterionResult(7, "independence certificates", False, "refused"),
    ],
}

# what a rewritten method returns, compared on both sides
RESULTS = {
    "Violation": lambda v: json.dumps(v.to_json()),
    "ValidationReport": lambda r: (r.ok, r.render()),
    "Certificate": lambda c: c.independent,
    "Refusal": lambda r: r.independent,
    "RelationsVerdict": lambda v: json.dumps(v.to_json()),
}

# the classes that became tuples
TUPLES = sorted(name for name in SAMPLES if issubclass(getattr(NEW, name), tuple))


def _values(name):
    return ([make(NEW) for make in SAMPLES[name]], [make(OLD) for make in SAMPLES[name]])


def test_every_replaced_class_has_a_reference_and_samples():
    assert set(SAMPLES) == set(vars(NEW)) and len(SAMPLES) == 19
    assert set(RESULTS) <= set(SAMPLES)
    assert TUPLES == sorted(set(SAMPLES) - {"QuadraticForm", "ProjectiveQuadric", "Grassmannian"})


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_agrees_with_its_old_dataclass(name):
    new, old = _values(name)
    hashable = getattr(OLD, name).__hash__ is not None
    assert any(a == b and a is not b for a, b in itertools.combinations(new, 2))
    for (a, a_old), (b, b_old) in itertools.product(zip(new, old), repeat=2):
        assert (a == b) == (a_old == b_old)
        assert (a != b) == (a_old != b_old)
        if hashable:
            assert hash(a) == hash(a_old)
            if a == b:
                assert hash(a) == hash(b)
        if name in ORDERED:
            assert (a < b, a <= b, a > b, a >= b) == (
                a_old < b_old, a_old <= b_old, a_old > b_old, a_old >= b_old)
    if name in ORDERED:
        assert [repr(v) for v in sorted(new)] == [repr(v) for v in sorted(old)]
    if not hashable:
        for v in new:
            with pytest.raises(TypeError):
                hash(v)
    for a, a_old in zip(new, old):
        assert type(a) is getattr(NEW, name)
        assert repr(a) == repr(a_old) == str(a) == str(a_old)
        for f in dataclasses.fields(a_old):
            assert repr(getattr(a, f.name)) == repr(getattr(a_old, f.name))
        if name in RESULTS:
            assert RESULTS[name](a) == RESULTS[name](a_old)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_refuses_assignment_and_survives_copies(name):
    new, old = _values(name)
    for a, a_old in zip(new, old):
        for f in dataclasses.fields(a_old):
            before = repr(getattr(a, f.name))
            with pytest.raises(AttributeError):
                setattr(a, f.name, None)
            with pytest.raises(AttributeError):
                delattr(a, f.name)
            assert repr(getattr(a, f.name)) == before
        with pytest.raises(AttributeError):
            a.no_such_field = 1
        for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(again) is type(a) and again == a and repr(again) == repr(a)


def test_a_forms_memo_id_survives_copies_and_pickles():
    # the oracle memo rows key by memo_id, which __init__ computes; a declared
    # id that spells a real key gets a memo id that no real form has
    q, spelled = QuadraticForm.real(2, 1), QuadraticForm.declared("(2,1)", 3)
    assert q.memo_id == q.key == "(2,1)"
    assert spelled.key == "(2,1)" and not spelled.memo_id.startswith("(")
    for form in (q, spelled):
        for again in (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
            assert again == form and again.memo_id == form.memo_id


def test_slotted_values_never_equal_a_tuple_and_grassmannians_refuse_the_range():
    q = QuadraticForm.real(2, 1)
    assert q != ("real", 2, 1, "", 0) and ProjectiveQuadric(q) != (q,)
    g = Grassmannian(ProjectiveQuadric(q), 0)
    assert g != (g.quadric, 0) and g != ClassKey("(2,1)", 0)
    with pytest.raises(TypeError):
        g < (g.quadric, 1)
    for planes in (-1, 1):
        with pytest.raises(ValueError) as exc:
            Grassmannian(ProjectiveQuadric(q), planes)
        with pytest.raises(ValueError) as old_exc:
            OldGrassmannian(OldProjectiveQuadric(OldQuadraticForm("real", 2, 1)), planes)
        message = f"G((2,1),{planes}): plane level out of range"
        assert str(exc.value) == str(old_exc.value) == message


def test_tuple_values_of_different_classes_never_compare_equal():
    samples = [(name, v) for name in TUPLES for v in _values(name)[0]]
    for (name_a, a), (name_b, b) in itertools.combinations(samples, 2):
        if name_a != name_b:
            assert a != b, (a, b)


def _exercised_lattices():
    """A real lattice and its declared snapshot after every kind of query."""
    forms = real_forms(4)
    model = real_lattice(forms, depth=2)
    for q in forms:
        if q.dim >= 2:
            decompose_real(q, model)
        inverse_identity_check(q, model)
        tower = build_tower(q, model)
        for token in model.extension_tokens()[:5]:
            active_index(tower, token, model)
    quadrics = [ProjectiveQuadric(q) for q in forms if q.dim >= 2]
    for p, q in zip(quadrics, quadrics[1:]):
        relations_check([p], [q], model)
        motivically_equivalent(p, q, model)
        det(p, model).equality(det(q, model))
    independent([QuadraticForm.real(0, 1), QuadraticForm.real(0, 2)], model)
    independent([QuadraticForm.real(0, 2), QuadraticForm.real(1, 3)], model)
    basis_real(det(ProjectiveQuadric(QuadraticForm.real(4, 0)), model), 2)
    model.validate()

    snapshot = declared_lattice_from_data(lattice_to_data(model))
    for q in forms:
        if q.dim >= 2:
            form = snapshot.form(q.key)
            declare_decompositions({q.key: decompose_real(q, model).to_json()}, snapshot)
            generator_e(form, snapshot).equality(generator_e(form, snapshot))
    snapshot.validate()
    return model, snapshot


def _containers(model):
    """Every dict that the lattice and the layers above keep for it."""
    out = {f'memos["{name}"]': memo for name, memo in model.memos.items()}
    for name, value in vars(model).items():
        if isinstance(value, dict) and name != "memos":
            out[name] = value
    return out


def test_no_container_mixes_a_tuple_value_type_with_other_keys():
    # a NamedTuple equals the plain tuple of its fields, so a dict that held
    # both could answer a lookup with the wrong entry; every container of a
    # lattice keys by at most one kind of tuple, and only the union-find keys
    # by a value type
    value_types = {getattr(NEW, name) for name in TUPLES}
    seen = {}
    for model in _exercised_lattices():
        for name, container in _containers(model).items():
            key_types = {type(k) for k in container if isinstance(k, tuple)}
            assert len(key_types) <= 1, (name, key_types)
            seen.setdefault(name, set()).update(key_types)
    assert seen['memos["classes"]'] == {ClassKey}
    assert seen['memos["decompositions"]'] == {tuple}
    assert {name for name, types in seen.items() if types & value_types} == {'memos["classes"]'}


def test_importing_the_engine_does_not_import_dataclasses():
    # building a dataclass costs about a millisecond at import; the engine's
    # value types are NamedTuples and slotted classes instead
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import quadpic, quadpic.cli, quadpic.acceptance; "
            "print(sorted(n for n in sys.modules if n == 'dataclasses'))")
    out = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
