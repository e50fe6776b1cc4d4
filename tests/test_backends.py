"""The layers above fields never ask which backend they hold.

Each backend's oracle refuses the other backend's forms, so a misuse across
backends is a ModelError raised by the oracle, and the registries keep a
declared id that spells a real key apart from the real form.
"""

import ast
from pathlib import Path

import pytest

from quadpic import (
    ModelError,
    ProjectiveQuadric,
    QuadraticForm,
    basis_real,
    declared_lattice_from_data,
    decompose_real,
    det,
    generator_e,
    identity,
    lattice_to_data,
    motivically_equivalent,
    real_lattice,
    registered_decomposition,
    relations_check,
    tate_element,
)
from quadpic.decomp import declare_decompositions
from quadpic.tower import active_index, build_tower
from quadpic.twists import TateTwist, phi_affine, phi_det
from summand_reference import tate_counts

real = QuadraticForm.real
SPELLED = QuadraticForm.declared("(2,1)", 3)  # a declared id that spells a real key
TWO_TATES = {"tates": [{"x": 0, "y": 0}, {"x": 1, "y": 2}]}
SRC = Path(__file__).resolve().parents[1] / "src" / "quadpic"


def twin_lattices():
    """A real lattice, and the declared lattice loaded from its snapshot."""
    source = real_lattice([real(2, 1)], depth=1)
    return source, declared_lattice_from_data(lattice_to_data(source))


def test_the_decomposition_registry_keeps_the_backends_apart():
    source, declared = twin_lattices()
    declare_decompositions({"(2,1)": TWO_TATES}, declared)
    with pytest.raises(ModelError, match="real form \\(2,1\\) is not in the declared table"):
        registered_decomposition(ProjectiveQuadric(real(2, 1)), declared)
    decompose_real(real(2, 1), source)
    with pytest.raises(ModelError, match="no declared decomposition registered for \\(2,1\\)"):
        registered_decomposition(ProjectiveQuadric(SPELLED), source)


@pytest.mark.parametrize("build", [
    generator_e,
    lambda q, model: det(ProjectiveQuadric(q), model),
], ids=["e", "det"])
def test_generators_need_the_form_the_lattice_registered(build):
    source, declared = twin_lattices()
    # a declared id that spells a real key, and a declared id of another dimension
    for form, model in [(SPELLED, source), (QuadraticForm.declared("(2,1)", 5), declared)]:
        with pytest.raises(ModelError, match="declared form \\(2,1\\) is not registered"):
            build(form, model)
    assert build(declared.form("(2,1)"), declared).word


def test_relations_refuse_the_form_the_lattice_did_not_register():
    # the id names a declared decomposition and a Witt row, but of dim 3: the
    # fingerprint side must refuse the form before it reads a det value
    _, declared = twin_lattices()
    declare_decompositions({"(2,1)": TWO_TATES}, declared)
    good = ProjectiveQuadric(declared.form("(2,1)"))
    bad = ProjectiveQuadric(QuadraticForm.declared("(2,1)", 5))
    for ps, qs in (([bad], []), ([good], [bad]), ([bad], [good])):
        with pytest.raises(ModelError) as exc:
            relations_check(ps, qs, declared)
        assert str(exc.value) == "declared form (2,1) is not registered"
    assert relations_check([good], [good], declared) == (True, True)


def test_a_declared_id_at_another_dimension_never_reaches_the_registered_rows():
    # (2,1) is registered at dim 3; the same id at dim 5 (or dim 2, whose
    # tower can be built) must be refused before any value is stored, so the
    # registered form reads what a fresh lattice reads
    _, declared = twin_lattices()
    _, fresh = twin_lattices()
    base = declared.base
    wide, narrow = QuadraticForm.declared("(2,1)", 5), QuadraticForm.declared("(2,1)", 2)
    calls = [
        lambda: phi_det(ProjectiveQuadric(wide), base, declared),
        lambda: phi_affine(wide, base, declared),
        lambda: phi_det(ProjectiveQuadric(narrow), base, declared),
        lambda: phi_affine(narrow, base, declared),
        lambda: active_index(build_tower(narrow, declared), base, declared),
    ]
    for call in calls:
        for _ in range(2):  # refused again on the second call
            with pytest.raises(ModelError) as exc:
                call()
            assert str(exc.value) == "declared form (2,1) is not registered"

    def values(model):
        q = model.form("(2,1)")
        return [(phi_det(ProjectiveQuadric(q), t, model), phi_affine(q, t, model),
                 active_index(build_tower(q, model), t, model))
                for t in model.extension_tokens()]

    assert values(declared) == values(fresh)


def _rost_summand():
    return decompose_real(real(4, 0), real_lattice([], depth=0)).summands[0]


# name -> misuse, given a real lattice and the declared lattice of its snapshot
MISUSES = {
    "decompose_real/declared": lambda src, dec: decompose_real(real(2, 1), dec),
    # a table names forms by id, so on a declared lattice every id names a declared form
    "declare/real-form-real": lambda src, dec: declare_decompositions({"(2,1)": TWO_TATES}, src),
    "declare/declared-form-real": lambda src, dec: declare_decompositions({"P": TWO_TATES}, src),
    "registered/real-quadric-declared":
        lambda src, dec: registered_decomposition(ProjectiveQuadric(real(3, 1)), dec),
    "registered/declared-quadric-real":
        lambda src, dec: registered_decomposition(ProjectiveQuadric(SPELLED), src),
    "tate_counts/declared": lambda src, dec: tate_counts(_rost_summand(), dec.base, dec),
    "relations/declared": lambda src, dec: relations_check(
        [ProjectiveQuadric(real(2, 1))], [ProjectiveQuadric(real(3, 0))], dec),
    "relations-empty/declared": lambda src, dec: relations_check(
        [ProjectiveQuadric(real(1, 0))], [ProjectiveQuadric(real(0, 1))], dec),
    "equiv/declared": lambda src, dec: motivically_equivalent(
        ProjectiveQuadric(real(2, 1)), ProjectiveQuadric(real(1, 2)), dec),
    "equiv-dims/declared": lambda src, dec: motivically_equivalent(
        ProjectiveQuadric(real(2, 1)), ProjectiveQuadric(real(4, 0)), dec),
}


@pytest.mark.parametrize("name", sorted(MISUSES))
def test_cross_backend_misuse_is_a_model_error(name):
    # a ModelError, never an AttributeError from a layer asking for a backend
    with pytest.raises(ModelError):
        MISUSES[name](*twin_lattices())


ELEMENTS = {
    "identity": identity,
    "tate": lambda model: tate_element(model, TateTwist(1, 2)),
    "e": lambda model: generator_e(model.form("(2,1)"), model),
    "det": lambda model: det(ProjectiveQuadric(model.form("(2,1)")), model),
}


@pytest.mark.parametrize("maxr", [0, 1, 2, 3])
@pytest.mark.parametrize("element", sorted(ELEMENTS))
def test_the_pfister_basis_refuses_a_declared_lattice(element, maxr):
    _, declared = twin_lattices()
    # det gets a class vector, so at maxr = 0 only the lattice's refusal of
    # the real Pfister forms stops identity, tate and det from expanding
    declare_decompositions({"(2,1)": TWO_TATES}, declared)
    with pytest.raises(ModelError):
        basis_real(ELEMENTS[element](declared), maxr)


def test_the_pfister_basis_still_expands_on_a_real_lattice():
    source, _ = twin_lattices()
    expansion = basis_real(identity(source), 0)
    assert expansion.coords == () and expansion.tate == TateTwist(0, 0)


def test_the_pfister_basis_registers_no_form_to_refuse_a_declared_lattice():
    # the declared lattice is refused by a Witt read, which leaves a real
    # lattice's registry and snapshot as they were
    model = real_lattice([], depth=0)
    snapshot = lattice_to_data(model)
    assert basis_real(identity(model), 0).coords == ()
    assert model.form_keys() == []
    assert lattice_to_data(model) == snapshot
    _, declared = twin_lattices()
    keys = declared.form_keys()
    with pytest.raises(ModelError) as exc:
        basis_real(identity(declared), 0)
    assert str(exc.value) == "real form (2,0) is not in the declared table"
    assert declared.form_keys() == keys


def test_no_module_asks_which_backend_it_holds():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "backend":
                offences.append(f"{path.name}:{node.lineno} reads .backend")
            if path.name == "forms.py":
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("REAL", "DECLARED"):
                offences.append(f"{path.name}:{getattr(node, 'lineno', '?')} names {name}")
    assert not offences, offences
