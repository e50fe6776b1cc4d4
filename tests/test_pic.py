import ast
import copy
import hashlib
import inspect
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import quadpic
from quadpic import (
    BasisExpansion,
    QuadPicError,
    ClassKey,
    DeclaredLattice,
    DisagreementError,
    Grassmannian,
    ModelError,
    PicElement,
    ProjectiveQuadric,
    QuadraticForm,
    RelationsVerdict,
    TateTwist,
    all_flags,
    basis_real,
    declared_lattice_from_data,
    det,
    det_product,
    generator_e,
    identity,
    independent,
    inverse_identity_check,
    lattice_to_data,
    motivically_equivalent,
    pfister_real,
    phi_affine,
    phi_det,
    prime,
    real_lattice,
    registered_decomposition,
    relations_check,
    t_equivalent,
    tate_element,
)
from quadpic.acceptance import real_forms
from quadpic.decomp import declare_decompositions, parse_rost_kind
from quadpic.tower import active_index, build_tower
from quadpic.pic import GEN_DET, GEN_E, EqualityVerdict, InverseCheckReport, _sweep
from test_cli_corpus import TWINS

real = QuadraticForm.real
SRC = Path(__file__).resolve().parents[1] / "src" / "quadpic"
signatures = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda pm: pm[0] + pm[1] >= 1
)


def quadric(p, m):
    return ProjectiveQuadric(real(p, m))


def rich_lattice(extra=(), depth=2):
    forms = [real(p, n - p) for n in range(1, 9) for p in range(n + 1)]
    return real_lattice(forms + list(extra), depth=depth)


# ------------------------------------------------------------- generators


def test_generator_everywhere_anisotropic_has_zero_fingerprint():
    # a lattice whose only level drop (8) keeps (0,5) and (6,0) anisotropic
    model = real_lattice([real(16, 0)], depth=1)
    fp = generator_e(real(0, 5), model).fingerprint()
    assert set(fp.values()) == {TateTwist(0, 0)}
    assert len(fp) >= 2


def test_generator_of_split_form_is_the_split_twist():
    model = rich_lattice()
    for n in (2, 3, 6, 7):
        q = real((n + 1) // 2, n // 2)
        fp = generator_e(q, model).fingerprint()
        assert set(fp.values()) == {TateTwist(n // 2, n)}


@given(signatures)
@settings(deadline=None, max_examples=20)
def test_adding_a_hyperbolic_plane_twists_by_one(pm):
    p, m = pm
    model = real_lattice([real(p, m), real(p + 1, m + 1)], depth=2)
    a = generator_e(real(p, m), model).fingerprint()
    b = generator_e(real(p + 1, m + 1), model).fingerprint()
    assert b.keys() == a.keys()
    assert {b[t] - a[t] for t in a} == {TateTwist(1, 2)}


def test_group_laws():
    model = rich_lattice()
    a = generator_e(real(2, 1), model)
    b = generator_e(real(1, 1), model)
    assert (a * a**-1).equality(identity(model)).equal
    assert (a**-1).word == (((("e", "(2,1)")), -1),)
    assert (a * b).fingerprint() == (b * a).fingerprint()
    squared = {t: 2 * v for t, v in (a * b).fingerprint().items()}
    assert ((a * b) ** 2).fingerprint() == squared
    with pytest.raises(ModelError):
        a * generator_e(real(2, 1), rich_lattice())


def test_free_abelian_no_torsion_on_representations():
    model = rich_lattice()
    x = generator_e(real(0, 3), model) * generator_e(real(0, 2), model) ** -1
    for k in (2, 3, 5):
        power = x**k
        assert not power.equality(identity(model)).equal
    assert (x * x**-1).equality(identity(model)).equal


# ------------------------------------------------------------ inverse law


def test_inverse_law_hyperbolic_plane():
    model = rich_lattice()
    report = inverse_identity_check(real(1, 1), model)
    assert report.ok and report.expected == TateTwist(2, 5)


def test_inverse_law_every_small_form():
    model = rich_lattice()
    for key in list(model.form_keys()):
        q = model.form(key)
        assert inverse_identity_check(q, model).ok


def test_pfister_generator_inverts_the_pure_part_mod_tate():
    model = rich_lattice()
    for r in (1, 2, 3):
        product = generator_e(pfister_real(r), model) * generator_e(
            real(0, 2**r - 1), model
        )
        values = set(product.fingerprint().values())
        assert values == {TateTwist(2**r - 1, 2 * (2**r - 1) + 1)}


# --------------------------------------------------------------------- det


def test_det_word_and_telescoping():
    model = rich_lattice()
    element = det(quadric(2, 1), model)
    assert element.word == ((("e", "(1,0)"), 1), (("e", "(1,1)"), 1))
    for token in model.extension_tokens():
        assert element.value_at(token) == phi_det(quadric(2, 1), token, model)


def test_det_flag_invariance_explicit():
    model = rich_lattice()
    q = real(3, 1)
    default = det(ProjectiveQuadric(q), model)
    chains = list(all_flags(q))
    assert len(chains) == 4
    for chain in chains:
        verdict = default.equality(det(ProjectiveQuadric(q), model, flag=chain))
        assert verdict.equal and verdict.exact


def test_det_of_empty_quadric_is_identity():
    model = rich_lattice()
    element = det(quadric(1, 0), model)
    assert element.word == () and element.tate == TateTwist(0, 0)


def test_invalid_flags_rejected():
    model = rich_lattice()
    with pytest.raises(ModelError):
        det(quadric(3, 1), model, flag=[real(1, 1)])
    with pytest.raises(ModelError):
        det(quadric(1, 0), model, flag=[real(1, 0)])
    with pytest.raises(ModelError):
        det(quadric(3, 1), model, flag=[real(3, 0)])  # stops at dimension 3


def _reference_det_word(form, chain):
    """det's word from the step rule: a flag entry, or else drop the larger
    coordinate (ties drop a positive one); a positive drop to `lower` adds
    e^(lower.neg, lower.pos), a negative drop adds e^lower."""
    word = Counter()
    steps = iter(chain or ())
    current = form
    while current.dim >= 2:
        lower = next(steps, None)
        if lower is None:
            if current.pos >= current.neg:
                lower = real(current.pos - 1, current.neg)
            else:
                lower = real(current.pos, current.neg - 1)
        generator = real(lower.neg, lower.pos) if lower.pos < current.pos else lower
        word[("e", generator.key)] += 1
        current = lower
    return dict(word)


def test_det_words_follow_the_step_rule():
    cases = []
    for n in range(2, 9):
        for p in range(n + 1):
            form = real(p, n - p)
            cases.append((form, None))
            for chain in all_flags(form):
                cases.append((form, chain))
                if n > 2:
                    cases.append((form, chain[:-1]))  # stops at dimension 2
    assert len(cases) == 1054
    for form, chain in cases:
        element = det(ProjectiveQuadric(form), real_lattice([], depth=0), flag=chain)
        assert dict(element.word) == _reference_det_word(form, chain), (form.key, chain)


# keys of every all_flags chain, for each (p, m) with 1 <= p + m <= 9 in
# (dimension, p) order, as json; recorded when the order was last changed
ALL_FLAGS_DIGEST = "a2b60720ddad1e13e53d6b611798de56ad865c05a79401fab3466f4270ebe14a"


def test_all_flags_counts_order_and_acceptance():
    keys = []
    model = real_lattice([], depth=0)
    for n in range(1, 10):
        for p in range(n + 1):
            form = real(p, n - p)
            chains = list(all_flags(form))
            chain_keys = [[e.key for e in chain] for chain in chains]
            if n == 1:
                assert chain_keys == [[]]
            else:
                assert len(chains) == math.comb(n - 1, n - p) + math.comb(n - 1, p)
                assert len({tuple(k) for k in chain_keys}) == len(chains)
            for chain in chains:
                det(ProjectiveQuadric(form), model, flag=chain)
            keys.append(chain_keys)
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == ALL_FLAGS_DIGEST


def test_pfister_det_identities():
    model = rich_lattice([pfister_real(4)])
    for r in (1, 2, 3):
        x = det(ProjectiveQuadric(pfister_real(r)), model)
        pure_step = generator_e(real(0, 2**r - 1), model) ** (2 ** (r - 1))
        verdict = x.equality(pure_step)
        assert verdict.equal and verdict.exact
        # mod Tate, det is the -2^(r-1) power of the Pfister generator
        mixed = x * generator_e(pfister_real(r), model) ** (2 ** (r - 1))
        assert len(set(mixed.fingerprint().values())) == 1


def test_det_class_vector_telescopes_to_the_quadric_classes():
    from quadpic import decompose_real
    from quadpic.decomp import class_vector

    model = rich_lattice()
    for pm in [(3, 1), (5, 0), (4, 2), (6, 1)]:
        element = det(quadric(*pm), model)
        direct = class_vector([decompose_real(real(*pm), model)])
        assert element.det_vector() == direct


def test_fingerprint_tate_part_shifts_every_entry():
    model = rich_lattice()
    x = generator_e(real(2, 1), model)
    before = x.fingerprint()
    after = (x * tate_element(model, TateTwist(1, 5))).fingerprint()
    assert after.keys() == before.keys()
    assert {after[t] - before[t] for t in before} == {TateTwist(1, 5)}


# ---------------------------------------------------------- independence


def test_independent_pfister_pure_family():
    model = rich_lattice()
    family = [real(0, 1), real(0, 2), real(0, 4), real(0, 8)]
    cert = independent(family, model)
    assert cert.independent
    assert cert.order == ("(0,8)", "(0,4)", "(0,2)", "(0,1)")
    assert all(step.twist for step in cert.steps)
    assert [prime(q).key for q in family] == ["(2,0)", "(3,0)", "(5,0)", "(9,0)"]


def test_singleton_certificate():
    model = rich_lattice()
    cert = independent([real(0, 4)], model)
    assert cert.independent and len(cert.steps) == 1
    assert cert.steps[0].witness.endswith("(5,0)")


def test_refusal_names_the_degenerate_pair():
    model = rich_lattice()
    refusal = independent([real(0, 2), real(1, 3)], model)
    assert not refusal.independent
    assert ("(0,2)", "(1,3)") in refusal.pairs
    assert any("isotropic" in reason for reason in refusal.reasons)


def test_refusal_on_isotropic_prime_alone():
    model = rich_lattice()
    refusal = independent([real(1, 0)], model)  # prime (1,1) is split
    assert not refusal.independent
    assert any("isotropic" in reason for reason in refusal.reasons)


def test_duplicate_forms_are_refused():
    model = rich_lattice()
    refusal = independent([real(0, 2), real(0, 2)], model)
    assert not refusal.independent and refusal.pairs


def test_declared_certificates_break_sink_ties_deterministically():
    # two declared classes with no rational maps either way: both are sinks
    # at once, and the elimination picks the smaller form id first
    data = {
        "forms": [
            {"id": "a", "dim": 2, "prime": "ap"},
            {"id": "ap", "dim": 3},
            {"id": "b", "dim": 2, "prime": "bp"},
            {"id": "bp", "dim": 3},
        ],
        "extensions": [
            {"id": "k", "construction": "base"},
            {"id": "k(ap)", "parent": "k", "construction": "ff:ap"},
            {"id": "k(bp)", "parent": "k", "construction": "ff:bp"},
        ],
        "witt": [
            {"form": f, "extension": e, "index": i}
            for (f, e, i) in [
                ("a", "k", 0), ("ap", "k", 0), ("b", "k", 0), ("bp", "k", 0),
                ("a", "k(ap)", 1), ("ap", "k(ap)", 1), ("b", "k(ap)", 0), ("bp", "k(ap)", 0),
                ("a", "k(bp)", 0), ("ap", "k(bp)", 0), ("b", "k(bp)", 1), ("bp", "k(bp)", 1),
            ]
        ],
    }
    from quadpic import declared_lattice_from_data

    model = declared_lattice_from_data(data)
    cert = independent([model.form("a"), model.form("b")], model)
    assert cert.independent
    assert cert.order == ("a", "b")
    assert [s.witness for s in cert.steps] == ["k(ap)", "k(bp)"]


# -------------------------------------------------------------- relations


def test_relations_examples():
    model = rich_lattice()
    verdict = relations_check([quadric(3, 1)], [quadric(2, 0)], model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent
    verdict = relations_check([quadric(3, 0)], [quadric(2, 0)], model)
    assert not verdict.fingerprint_equal_mod_tate and not verdict.tate_equivalent


def test_relations_pfister_power_identity():
    model = rich_lattice()
    pf = quadric(8, 0)
    pure = quadric(0, 7)
    verdict = relations_check([pf] + [pure] * 4, [pf] * 4, model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent


def test_relations_reflexive_on_products():
    model = rich_lattice()
    sides = [quadric(4, 2), quadric(3, 0)]
    verdict = relations_check(sides, list(reversed(sides)), model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent


def test_relations_edge_cases():
    model = rich_lattice()
    verdict = relations_check([], [], model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent
    # det of a split quadric is a pure Tate element: equal mod Tate to nothing
    verdict = relations_check([quadric(1, 1)], [], model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent
    verdict = relations_check([quadric(3, 0)], [], model)
    assert not verdict.fingerprint_equal_mod_tate and not verdict.tate_equivalent


def two_fingerprint_verdict(x, y):
    """The relation verdict read off the fingerprints of x and y token by token."""
    fx, fy = x.fingerprint(), y.fingerprint()
    assert fx.keys() == fy.keys()
    return {fx[t] - fy[t] for t in fx} == {x.closure_value() - y.closure_value()}


def test_relations_verdict_matches_the_two_fingerprint_reference():
    from quadpic.acceptance import _random_quadrics, _tate_shuffle, canonical_quadric_forms

    # seeded det-product pairs drawn as in acceptance criterion 5
    rng = random.Random(5)
    model = real_lattice(canonical_quadric_forms(10), depth=1)
    seen = set()
    for _ in range(60):
        lhs = _random_quadrics(rng)
        rhs = _tate_shuffle(rng, lhs) if rng.random() < 0.5 else _random_quadrics(rng)
        verdict = relations_check(lhs, rhs, model).fingerprint_equal_mod_tate
        reference = two_fingerprint_verdict(det_product(lhs, model), det_product(rhs, model))
        assert verdict == reference, (lhs, rhs)
        seen.add(verdict)
    assert seen == {True, False}


def test_only_the_cli_builds_fingerprints():
    # comparisons sweep a quotient once per oracle group; a fingerprint is
    # built for output only
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                path.name != "cli.py"
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fingerprint"
            ):
                offences.append(f"{path.name}:{node.lineno} calls .fingerprint()")
    assert not offences, offences


# ------------------------------------------------------------ equivalence


def test_motivic_equivalence_examples():
    model = rich_lattice()
    assert motivically_equivalent(quadric(4, 0), quadric(4, 0), model)
    assert motivically_equivalent(quadric(4, 0), quadric(0, 4), model)
    assert not motivically_equivalent(quadric(4, 0), quadric(3, 1), model)
    assert not motivically_equivalent(quadric(4, 0), quadric(5, 0), model)


def twin_declared_model():
    data = {
        "forms": [
            {"id": "P", "dim": 5, "prime": "Pp"},
            {"id": "Pp", "dim": 6},
            {"id": "Q", "dim": 5, "prime": "Qp"},
            {"id": "Qp", "dim": 6},
        ],
        "extensions": [
            {"id": "k", "construction": "base"},
            {"id": "k(P)", "parent": "k", "construction": "ff:P"},
            {"id": "k(Q)", "parent": "k", "construction": "ff:Q"},
            {"id": "k(G(P,1))", "parent": "k", "construction": "gff:P:1"},
            {"id": "k(G(Q,1))", "parent": "k", "construction": "gff:Q:1"},
        ],
        "witt": [
            {"form": f, "extension": e, "index": i}
            for f in ("P", "Pp", "Q", "Qp")
            for e, i in (
                ("k", 0),
                ("k(P)", 1),
                ("k(Q)", 1),
                ("k(G(P,1))", 2),
                ("k(G(Q,1))", 2),
            )
        ],
    }
    return declared_lattice_from_data(data)


def test_declared_twins_are_equivalent_with_equal_det():
    model = twin_declared_model()
    P, Q = ProjectiveQuadric(model.form("P")), ProjectiveQuadric(model.form("Q"))
    assert motivically_equivalent(P, Q, model)
    verdict = det(P, model).equality(det(Q, model))
    assert verdict.equal and not verdict.exact
    # different dimensions are separated even on a poor lattice
    data_dim = {
        "forms": [{"id": "A", "dim": 4}, {"id": "B", "dim": 6}],
        "extensions": [{"id": "k", "construction": "base"}],
        "witt": [
            {"form": "A", "extension": "k", "index": 0},
            {"form": "B", "extension": "k", "index": 0},
        ],
    }
    poor = declared_lattice_from_data(data_dim)
    A, B = ProjectiveQuadric(poor.form("A")), ProjectiveQuadric(poor.form("B"))
    assert not motivically_equivalent(A, B, poor)


def declare_two_classes(model, name):
    declare_decompositions({name: {
        "tates": [],
        "summands": [
            {"class": {"quadric": name, "planes": 0}, "shift": 0, "kind": "declared"},
            {"class": {"quadric": name, "planes": 1}, "shift": 1, "kind": "declared"},
        ],
    }}, model)


@pytest.mark.parametrize("order", [("P", "Q"), ("Q", "P")])
def test_twin_verdicts_do_not_depend_on_the_declaration_order(order):
    # declaring Q first makes Q#0 a root until P#0 joins its class and takes
    # over (the smaller key wins), so Q's registered classes are then children
    model = twin_declared_model()
    for name in order:
        declare_two_classes(model, name)
    P, Q = ProjectiveQuadric(model.form("P")), ProjectiveQuadric(model.form("Q"))
    verdict = det(P, model).equality(det(Q, model))
    assert verdict.equal and verdict.exact
    assert relations_check([P, Q], [P, P], model) == RelationsVerdict(True, True)
    assert motivically_equivalent(P, Q, model)
    # counts summed into a root keep their sign
    assert (det(Q, model) ** -2).det_vector() == Counter(
        {(ClassKey("P", 0), "declared"): -2, (ClassKey("P", 1), "declared"): -2}
    )


def test_declared_relations_need_decompositions():
    model = twin_declared_model()
    P, Q = ProjectiveQuadric(model.form("P")), ProjectiveQuadric(model.form("Q"))
    with pytest.raises(ModelError):
        relations_check([P], [Q], model)
    for name in ("P", "Q"):
        declare_decompositions({name: {
            "tates": [],
            "summands": [
                {"class": {"quadric": name, "planes": 0}, "shift": 0, "kind": "declared"},
                {"class": {"quadric": name, "planes": 1}, "shift": 1, "kind": "declared"},
            ],
        }}, model)
    verdict = relations_check([P], [Q], model)
    assert verdict.fingerprint_equal_mod_tate and verdict.tate_equivalent


# ------------------------------------------------------------------ basis


def test_basis_unit_vectors_and_pfister_coordinates():
    model = rich_lattice([pfister_real(4)])
    for r in (1, 2, 3, 4):
        unit = basis_real(generator_e(pfister_real(r), model), maxr=4)
        assert unit.coords == ((r, 1),) and unit.tate == TateTwist(0, 0)
        expansion = basis_real(det(ProjectiveQuadric(pfister_real(r)), model), maxr=4)
        assert expansion.coords == ((r, -(2 ** (r - 1))),)


def test_basis_expansion_of_a_mixed_generator():
    model = rich_lattice()
    expansion = basis_real(generator_e(real(0, 4), model), maxr=4)
    assert expansion.coords == ((2, 1), (3, -1))


def test_basis_rejects_insufficient_maxr():
    model = rich_lattice()
    with pytest.raises(ModelError):
        basis_real(det(quadric(8, 0), model), maxr=2)


def test_basis_round_trip_refuses_a_wrong_expansion(monkeypatch):
    import quadpic.pic as pic

    # the re-expansion is off by (0)[1] at every group, which the round trip must see
    honest = pic.tate_element
    monkeypatch.setattr(pic, "tate_element",
                        lambda model, twist: honest(model, twist + TateTwist(0, 1)))
    model = rich_lattice()
    with pytest.raises(DisagreementError, match="basis expansion fails the fingerprint round-trip"):
        basis_real(generator_e(real(0, 4), model), maxr=4)


def test_the_pfister_generators_are_diagonal_in_the_rost_classes():
    # basis_real reads its coordinates off this, whatever the lattice
    for model in (real_lattice([], depth=0), rich_lattice()):
        for r in range(1, 7):
            q = pfister_real(r)
            assert generator_e(q, model).det_vector() == {(ClassKey(q.key, 0), f"rost:{r}"): -1}


def test_basis_round_trip_refuses_wrong_coordinates(monkeypatch):
    import quadpic.pic as pic

    # every class is read one fold too high, so the coordinates sit on the wrong generators
    honest = pic.parse_rost_kind
    monkeypatch.setattr(pic, "parse_rost_kind", lambda kind: honest(kind) + 1)
    model = rich_lattice()
    with pytest.raises(DisagreementError, match="basis expansion fails the fingerprint round-trip"):
        basis_real(generator_e(real(0, 4), model), maxr=5)


@given(st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda pm: sum(pm) >= 2))
@settings(deadline=None, max_examples=25)
def test_basis_round_trip_reproduces_fingerprints(pm):
    model = real_lattice([real(*pm)], depth=1)
    element = det(ProjectiveQuadric(real(*pm)), model)
    expansion = basis_real(element, maxr=4)  # verification happens inside
    rebuilt = identity(model)
    for r, c in expansion.coords:
        rebuilt = rebuilt * generator_e(pfister_real(r), model) ** c
    rebuilt = rebuilt * tate_element(model, expansion.tate)
    assert rebuilt.fingerprint() == element.fingerprint()


# ----------------------------------------------- equality route agreement


@given(
    st.lists(st.tuples(signatures, st.integers(-2, 2)), min_size=1, max_size=3),
    st.lists(st.tuples(signatures, st.integers(-2, 2)), min_size=1, max_size=3),
)
# the base and the closure alone cannot tell these apart: their values agree
# at both, but their rost:1..3 counts differ
@example(lhs=[((2, 0), -2), ((4, 0), 3)], rhs=[((8, 0), 1)])
@settings(deadline=None, max_examples=20)
def test_class_vector_and_fingerprint_equality_agree(lhs, rhs):
    # the separation rule is exact: over the base and one node per level that
    # the word's forms and primes separate, the exact route (class vector +
    # base twist) and the fingerprint route (pointwise values + closure) must
    # reach the same verdict
    model = real_lattice([], depth=0)
    x = identity(model)
    for pm, c in lhs:
        x = x * generator_e(real(*pm), model) ** c
    y = identity(model)
    for pm, c in rhs:
        y = y * generator_e(real(*pm), model) ** c
    model.separate([f for pm, _ in lhs + rhs for f in (real(*pm), prime(real(*pm)))])
    # read before equality, whose class vectors may add nodes of their own
    fingerprint_equal = (
        x.fingerprint() == y.fingerprint()
        and x.closure_value() == y.closure_value()
    )
    exact = x.equality(y)
    assert exact.exact
    assert exact.equal == fingerprint_equal


# ----------------------------------------------------- disagreement guard


def test_broken_declared_decomposition_trips_the_cross_check():
    model = twin_declared_model()
    P, Q = ProjectiveQuadric(model.form("P")), ProjectiveQuadric(model.form("Q"))
    declare_decompositions({"P": {
        "tates": [],
        "summands": [
            {"class": {"quadric": "P", "planes": 0}, "shift": 0, "kind": "declared"},
            {"class": {"quadric": "P", "planes": 1}, "shift": 1, "kind": "declared"},
        ],
    }}, model)
    declare_decompositions({"Q": {
        "tates": [{"x": 0, "y": 0}, {"x": 4, "y": 8}],
        "summands": [
            {"class": {"quadric": "Q", "planes": 1}, "shift": 1, "kind": "declared"},
        ],
    }}, model)
    with pytest.raises(DisagreementError):
        relations_check([P], [Q], model)


# ------------------------------------------------------- grouped sweeps


def pointwise(element):
    return {t: element.value_at(t) for t in element.model.extension_tokens()}


def test_fingerprint_matches_pointwise_values_as_the_lattice_grows():
    rng = random.Random(11)
    model = rich_lattice(depth=1)
    elements = [generator_e(real(p, n - p), model) for n in range(1, 9) for p in range(n + 1)]
    for _ in range(12):
        sigs = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 3))]
        elements.append(
            tate_element(model, TateTwist(rng.randint(-3, 3), rng.randint(-3, 3)))
            * det_product([quadric(p, m + 1) for p, m in sigs], model)
        )
    for x in elements:
        assert x.fingerprint() == pointwise(x)

    # queries add nodes after the fingerprints above were cached
    before = len(model.extension_tokens())
    model.extend_by_grassmannian(model.base, Grassmannian(quadric(0, 16), 7))
    assert independent([real(0, 32), real(0, 16)], model).independent
    assert len(model.extension_tokens()) > before
    for x in elements:
        assert x.fingerprint() == pointwise(x)


def unsorted_declared_data(cpp_index):
    """Tokens inserted as z, y, a (parents first), which is not sorted order.

    c1 -> c1p -> c1pp is a prime chain; the Witt index of c1pp is the same
    cpp_index at every token.
    """
    table = {
        "z": {"c1": 0, "c1p": 0, "c2": 0, "c2p": 0},
        "y": {"c1": 1, "c1p": 1, "c2": 0, "c2p": 0},
        "a": {"c1": 1, "c1p": 2, "c2": 1, "c2p": 1},
    }
    return {
        "forms": [
            {"id": "c", "dim": 1, "prime": "cp"},
            {"id": "cp", "dim": 2, "prime": "cpp"},
            {"id": "cpp", "dim": 3},
            {"id": "c1", "dim": 3, "prime": "c1p"},
            {"id": "c1p", "dim": 4},
            {"id": "c2", "dim": 3, "prime": "c2p"},
            {"id": "c2p", "dim": 4},
        ],
        "extensions": [
            {"id": "z", "construction": "base"},
            {"id": "y", "parent": "z", "construction": "ff:c1"},
            {"id": "a", "parent": "y", "construction": "ff:c2"},
        ],
        "witt": [
            {"form": f, "extension": tok, "index": i}
            for tok, row in table.items()
            for f, i in {**row, "c": 0, "cp": 1, "cpp": cpp_index}.items()
        ],
    }


def test_declared_fallback_equality_names_the_smallest_differing_token():
    model = declared_lattice_from_data(unsorted_declared_data(cpp_index=1))
    assert [g for group in model.token_groups() for g in group] == ["z", "y", "a"]
    x = generator_e(model.form("c1"), model)
    y = generator_e(model.form("c2"), model)
    assert {t for t, v in pointwise(x * y**-1).items() if v} == {"y", "a"}
    verdict = x.equality(y)
    assert not verdict.equal and verdict.exact
    assert verdict.reason == "twist values differ at a"


def test_inverse_check_on_a_broken_table_lists_failures_in_token_order():
    model = declared_lattice_from_data(unsorted_declared_data(cpp_index=0), check=False)
    report = inverse_identity_check(model.form("c"), model)
    assert [t for t, _ in report.failures] == ["a", "y", "z"]
    assert all(v == TateTwist(0, 0) for _, v in report.failures)
    assert inverse_identity_check(
        model.form("c"), declared_lattice_from_data(unsorted_declared_data(cpp_index=1))
    ).ok


def _reference_value_at(element, token):
    """value_at as the per-group sweep had it: each atom resolved anew."""
    model = element.model
    x, y = element.tate
    for (gen, key), coeff in element.word:
        if gen == "e":
            ax, ay = phi_affine(model.form(key), token, model)
        else:
            ax, ay = phi_det(ProjectiveQuadric(model.form(key)), token, model)
        x += coeff * ax
        y += coeff * ay
    return TateTwist(x, y)


def _reference_sweep(element):
    """(group, value) per oracle group, through _reference_value_at."""
    for group in element.model.token_groups():
        yield group, _reference_value_at(element, group[0])


def _reference_equality(x, y):
    diff = x * y**-1
    vec = diff.det_vector()
    if vec is not None:
        if vec:
            return EqualityVerdict(False, True, "class vectors differ")
        if _reference_value_at(diff, diff.model.base):
            return EqualityVerdict(False, True, "Tate parts differ at the base")
        return EqualityVerdict(True, True, "class vector and base twist agree")
    if diff.closure_value():
        return EqualityVerdict(False, True, "closure twist values differ")
    differing = [min(group) for group, value in _reference_sweep(diff) if value]
    if differing:
        return EqualityVerdict(False, True, f"twist values differ at {min(differing)}")
    return EqualityVerdict(True, False, "fingerprints agree on every registered extension")


def _reference_inverse_check(q, model):
    q_prime = model.prime_of(q)
    product = generator_e(q, model) * generator_e(q_prime, model)
    expected = TateTwist(q.dim, 2 * q.dim + 1)
    failures = sorted(
        (token, value) for group, value in _reference_sweep(product)
        if value != expected for token in group
    )
    return InverseCheckReport(q.key, expected, tuple(failures))


def _reference_towers(model, forms):
    """The generic splitting tower of each form in turn, walked from the base
    as the function field of G(Q, dim q // 2 - 1).  A declared lattice builds
    none and refuses a real form; a real one refuses a declared form."""
    for q in forms:
        if isinstance(model, DeclaredLattice):
            if q.is_real:
                raise ModelError(f"real form {q.key} is not in the declared table")
        elif q.dim >= 2:
            model.extend_by_grassmannian(
                model.base, Grassmannian(ProjectiveQuadric(q), q.dim // 2 - 1))
        else:
            model.anisotropic_part(q, model.base)  # refuses a declared form


def _reference_relations(ps, qs, model):
    """relations_check over the splitting towers of its quadrics."""
    ps, qs = list(ps), list(qs)
    decs_p = [registered_decomposition(P, model) for P in ps]
    decs_q = [registered_decomposition(Q, model) for Q in qs]
    _reference_towers(model, [P.canonical_form for P in ps + qs])
    quotient = det_product(ps, model) * det_product(qs, model) ** -1
    fp_verdict = {value for _, value in _reference_sweep(quotient)} == {quotient.closure_value()}
    tequiv = t_equivalent(decs_p, decs_q, model)
    if fp_verdict != tequiv:
        raise DisagreementError(
            "relation criteria disagree "
            f"(fingerprints: {fp_verdict}, summand classes: {tequiv}); "
            "the model or a registered decomposition is broken"
        )
    return RelationsVerdict(fp_verdict, tequiv)


def _reference_equivalent(p, q, model):
    """motivically_equivalent over the splitting towers of p and q."""
    _reference_towers(model, [p.canonical_form, q.canonical_form])
    witt_route = p.dim == q.dim and all(
        model.witt_index(p.canonical_form, group[0]) == model.witt_index(q.canonical_form, group[0])
        for group in model.token_groups()
    )
    det_route = det(p, model).equality(det(q, model)).equal
    if witt_route != det_route:
        raise DisagreementError(
            f"equivalence criteria disagree for {p.key} vs {q.key} "
            f"(profiles: {witt_route}, det: {det_route})"
        )
    return witt_route


def _reference_basis(x, maxr):
    """basis_real with its round trip over the splitting towers of x's atoms,
    their primes and the Pfister forms up to maxr."""
    model = x.model
    model.register_form(pfister_real(1))
    vec = x.det_vector()
    if vec is None:
        raise ModelError("missing decompositions for the basis expansion")
    coords = {}
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
    primes = [model.prime_of(f) for f in atom_forms]
    _reference_towers(model, [*atom_forms, *primes, *map(pfister_real, range(1, maxr + 1))])
    twist = x.base_value() - expanded.base_value()
    residue = x * (expanded * tate_element(model, twist)) ** -1
    if any(value for _, value in _reference_sweep(residue)):
        raise DisagreementError("basis expansion fails the fingerprint round-trip")
    return BasisExpansion(tuple(sorted(coords.items())), twist)


def _outcome(read):
    """What read() returns, or the type and text of the engine error it raises."""
    try:
        return "ok", read()
    except QuadPicError as exc:
        return type(exc).__name__, str(exc)


def _twins_with_classes():
    model = twin_declared_model()
    for name in ("P", "Q"):
        declare_two_classes(model, name)
    return model


_SWEEP_MODELS = {
    "real": lambda: real_lattice(real_forms(5), depth=2),
    # on the snapshot the primes of the primes carry no prime link
    "snapshot": lambda: declared_lattice_from_data(
        lattice_to_data(real_lattice(real_forms(4), depth=2))),
    "twins": _twins_with_classes,
}


@pytest.mark.parametrize("name", sorted(_SWEEP_MODELS))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweeps_resolving_each_atom_once_match_the_per_group_reference(name, data):
    model = _SWEEP_MODELS[name]()
    keys = model.form_keys()
    atom = st.tuples(st.sampled_from([GEN_E, GEN_DET]), st.sampled_from(keys))
    # nonzero and zero, negative and repeated powers, with a Tate part
    pairs = st.lists(st.tuples(atom, st.integers(-3, 3)), max_size=5)
    x, y = (
        PicElement(model, TateTwist(*data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))),
                   pair + pair[:1])
        for pair in (data.draw(pairs), data.draw(pairs))
    )
    for element in (x, y, x * y**-1):
        assert _outcome(lambda: list(_sweep(element))) == _outcome(
            lambda: list(_reference_sweep(element)))
        assert _outcome(element.fingerprint) == _outcome(
            lambda: {t: v for group, v in _reference_sweep(element) for t in group})
        token = data.draw(st.sampled_from(model.extension_tokens()))
        assert _outcome(lambda: element.value_at(token)) == _outcome(
            lambda: _reference_value_at(element, token))
    assert _outcome(lambda: x.equality(y)) == _outcome(lambda: _reference_equality(x, y))
    for key in {key for (_, key), _ in x.word}:
        q = model.form(key)
        assert _outcome(lambda: inverse_identity_check(q, model)) == _outcome(
            lambda: _reference_inverse_check(q, model))
    quadrics = [ProjectiveQuadric(model.form(key)) for (_, key), _ in x.word + y.word]
    ps, qs = quadrics[::2], quadrics[1::2]
    assert _outcome(lambda: relations_check(ps, qs, model)) == _outcome(
        lambda: _reference_relations(ps, qs, model))


# ------------------------------------------------------------ separation


def test_separating_queries_answer_as_the_tower_reference():
    # each side grows its own lattice, query after query
    from quadpic.acceptance import (
        DEFAULT_SEED, _random_quadrics, _tate_shuffle, canonical_quadric_forms)

    def pair(build):
        return build(), build()

    # criterion 5's 200 seeded pairs
    rng = random.Random(DEFAULT_SEED)
    new, ref = pair(lambda: real_lattice(canonical_quadric_forms(10), depth=1))
    for _ in range(200):
        lhs = _random_quadrics(rng)
        rhs = _tate_shuffle(rng, lhs) if rng.random() < 0.5 else _random_quadrics(rng)
        assert _outcome(lambda: relations_check(lhs, rhs, new)) == _outcome(
            lambda: _reference_relations(lhs, rhs, ref)), (lhs, rhs)

    # every pair of canonical quadrics of dim <= 8, from an empty lattice
    new, ref = pair(lambda: real_lattice([], depth=0))
    quadrics = [ProjectiveQuadric(q) for q in canonical_quadric_forms(8)]
    for p, q in itertools.combinations_with_replacement(quadrics, 2):
        assert _outcome(lambda: motivically_equivalent(p, q, new)) == _outcome(
            lambda: _reference_equivalent(p, q, ref)), (p, q)
        assert _outcome(lambda: relations_check([p], [q], new)) == _outcome(
            lambda: _reference_relations([p], [q], ref)), (p, q)

    # det of every (p, m) of dim <= 16 at maxr 4
    new, ref = pair(lambda: real_lattice([], depth=0))
    for f in real_forms(16):
        assert _outcome(lambda: basis_real(det(ProjectiveQuadric(f), new), 4)) == _outcome(
            lambda: _reference_basis(det(ProjectiveQuadric(f), ref), 4)), f

    # refusals of the other backend's forms and of missing decompositions,
    # and the twins' verdicts once their classes are declared
    P, Q = QuadraticForm.declared("P", 5), QuadraticForm.declared("Q", 5)
    cases = [
        (relations_check, _reference_relations, ([ProjectiveQuadric(P)], [ProjectiveQuadric(Q)])),
        (relations_check, _reference_relations, ([quadric(3, 1)], [quadric(2, 0)])),
        (motivically_equivalent, _reference_equivalent, (ProjectiveQuadric(P), ProjectiveQuadric(Q))),
        (motivically_equivalent, _reference_equivalent, (quadric(3, 0), quadric(2, 1))),
        (motivically_equivalent, _reference_equivalent, (ProjectiveQuadric(P), quadric(3, 0))),
        (motivically_equivalent, _reference_equivalent, (quadric(9, 0), ProjectiveQuadric(P))),
    ]
    for build in (twin_declared_model, _twins_with_classes, lambda: real_lattice([], depth=0)):
        new, ref = pair(build)
        for query, reference, args in cases:
            assert _outcome(lambda: query(*args, new)) == _outcome(
                lambda: reference(*args, ref)), (query.__name__, args)
        for maxr in (2, 3):
            assert _outcome(lambda: basis_real(det(quadric(8, 0), new), maxr)) == _outcome(
                lambda: _reference_basis(det(quadric(8, 0), ref), maxr))


# item 3's queries, each with the nodes it adds to a fresh
# real_lattice(real_forms(8), 2), which holds the levels inf, 8, 4, 2 and 1,
# so no query needs a level it lacks: base/(16,0) is the class of rost:4, and
# base/(10,0) the witness of (0,9)
GROWTH = {
    "relations (9,0) vs (2,0)": (
        lambda m: relations_check([quadric(9, 0)], [quadric(2, 0)], m), ["base/(16,0)"]),
    "relations (12,0) vs (5,1)": (
        lambda m: relations_check([quadric(12, 0)], [quadric(5, 1)], m), ["base/(16,0)"]),
    "equivalent (12,0) vs (11,1)": (
        lambda m: motivically_equivalent(quadric(12, 0), quadric(11, 1), m), ["base/(16,0)"]),
    "basis det (16,0)": (
        lambda m: basis_real(det(quadric(16, 0), m), 5), ["base/(16,0)"]),
    "independent (0,9), (0,1)": (
        lambda m: independent([real(0, 9), real(0, 1)], m), ["base/(10,0)"]),
}


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_each_query_adds_only_its_missing_levels_and_classes(name):
    query, expected = GROWTH[name]
    model = real_lattice(real_forms(8), depth=2)
    before = model.extension_tokens()
    assert len(before) == 30
    query(model)
    assert sorted(set(model.extension_tokens()) - set(before)) == expected


# queries on a fresh real_lattice([], 0), each with the nodes it adds: the
# equivalence adds the classes of rost:1 to rost:6 and separates nothing; the
# basis separates for its atoms and fold 2 alone, not for every fold up to maxr
EMPTY_GROWTH = {
    "equivalent (41,1) vs (40,0)": (
        lambda m: motivically_equivalent(quadric(41, 1), quadric(40, 0), m),
        ["base/(16,0)", "base/(2,0)", "base/(32,0)", "base/(4,0)", "base/(64,0)", "base/(8,0)"]),
    "basis det (4,0) to fold 6": (
        lambda m: basis_real(det(quadric(4, 0), m), 6), ["base/(2,0)", "base/(4,0)"]),
}


@pytest.mark.parametrize("name", sorted(EMPTY_GROWTH))
def test_a_query_on_an_empty_lattice_adds_only_the_nodes_its_answer_reads(name):
    query, expected = EMPTY_GROWTH[name]
    model = real_lattice([], depth=0)
    query(model)
    assert sorted(set(model.extension_tokens()) - {"base"}) == expected


def test_separate_adds_one_node_per_missing_level_once():
    model = real_lattice([], depth=0)
    model.extend_by_function_field(model.base, quadric(6, 0))  # level 4
    # |p - m| = 9 needs the levels 1, 2, 4 and 8, and 4 is held
    model.separate([real(3, 12), real(2, 0), real(5, 5)])
    assert {t: model.level(t) for t in model.extension_tokens()} == {
        "base": math.inf, "base/(2,0)": 1, "base/(3,0)": 2, "base/(6,0)": 4, "base/(9,0)": 8}
    tokens = model.extension_tokens()
    for forms in ([real(3, 12), real(2, 0)], [real(0, 9)], [real(1, 1), real(1, 0)], []):
        model.separate(forms)
        assert model.extension_tokens() == tokens
    # a form of the other backend is refused, before any node is added
    declared_form = QuadraticForm.declared("P", 5)
    with pytest.raises(ModelError) as exc:
        model.separate([real(40, 0), declared_form])
    assert str(exc.value) == "declared form P has no real signature"
    assert model.extension_tokens() == tokens
    declared = twin_declared_model()
    tokens = declared.extension_tokens()
    declared.separate([declared_form, declared.form("Qp")])
    with pytest.raises(ModelError) as exc:
        declared.separate([declared_form, real(3, 0)])
    assert str(exc.value) == "real form (3,0) is not in the declared table"
    assert declared.extension_tokens() == tokens


def test_det_atoms_and_their_primes_need_no_level_their_quadric_does_not():
    # why relations_check separates over its quadrics' forms alone
    model = real_lattice([], depth=0)
    checked = 0
    for f in real_forms(24):
        if f.dim < 2:
            continue
        top = max(abs(f.pos - f.neg), 1)
        for (_, key), _ in det(ProjectiveQuadric(f), model).word:
            for g in (model.form(key), prime(model.form(key))):
                assert abs(g.pos - g.neg) <= top, (f, g)
                checked += 1
    assert checked == 9752


def test_a_sweep_refused_midway_carries_the_reference_text():
    model = twin_declared_model()
    # e^Pp needs the prime of Pp, which the model does not link
    x = tate_element(model, TateTwist(1, -2)) * generator_e(model.form("P"), model) \
        * generator_e(model.form("Pp"), model) ** 2
    want = ("ModelError", "declared form Pp has no prime link")
    assert _outcome(lambda: list(_reference_sweep(x))) == want
    # y has x's closure value, so equality sweeps the quotient
    y = tate_element(model, TateTwist(9, 15))
    assert x.closure_value() == y.closure_value()
    for read in (lambda: list(_sweep(x)), x.fingerprint, x.base_value,
                 lambda: x.equality(y), lambda: _reference_equality(x, y)):
        assert _outcome(read) == want


def test_generator_e_builds_the_sorted_one_atom_word():
    model = twin_declared_model()
    for key in model.form_keys():
        built = generator_e(model.form(key), model)
        reference = PicElement(model, word={(GEN_E, key): 1})
        assert (built.tate, built.word) == (reference.tate, reference.word)
    real_model = real_lattice([], depth=0)
    built = generator_e(real(3, 1), real_model)
    assert built.word == PicElement(real_model, word={(GEN_E, "(3,1)"): 1}).word
    assert set(real_model.form_keys()) == {"(3,1)", prime(real(3, 1)).key}  # registered


# ------------------------------------------------------ declared row groups


def _row_group_models():
    """TWINS and the declared snapshot of real_lattice(real_forms(8), depth=2)."""
    return {
        "twins": declared_lattice_from_data(copy.deepcopy(TWINS)),
        "snapshot": declared_lattice_from_data(
            lattice_to_data(real_lattice(real_forms(8), depth=2))),
    }


def _per_token(model, read):
    """_outcome of read(token) at every token, each from empty memos."""
    got = {}
    for token in model.extension_tokens():
        model.memos.clear()
        got[token] = _outcome(lambda: read(token))
    model.memos.clear()
    return got


def _first_refusal(model, outcomes):
    """The outcome at the first token, in insertion order, that is refused."""
    return next(outcomes[t] for t in model._extensions if outcomes[t][0] != "ok")


@pytest.mark.parametrize("name", ["twins", "snapshot"])
def test_row_groups_never_change_an_answer(name):
    model = _row_group_models()[name]
    tokens = model.extension_tokens()
    assert len(model.token_groups()) < len(tokens)  # some tokens share a row
    forms = [model.form(key) for key in model.form_keys()]
    for q in forms:
        for read in (lambda t: phi_affine(q, t, model),
                     lambda t: phi_det(ProjectiveQuadric(q), t, model),
                     lambda t: active_index(build_tower(q, model), t, model)):
            # grouped: the memos kept from token to token
            grouped = {t: _outcome(lambda: read(t)) for t in tokens}
            assert grouped == _per_token(model, read)

    # fingerprints of generated words, swept once per group
    words = [generator_e(q, model) for q in forms]
    words += [det(ProjectiveQuadric(q), model) for q in forms]
    words += [tate_element(model, TateTwist(1, -1)) * x * y**-2 for x, y in zip(words, words[1:])]
    for element in words:
        got = _outcome(element.fingerprint)
        per = _per_token(model, element.value_at)
        if got[0] == "ok":
            assert per == {t: ("ok", v) for t, v in got[1].items()}
        else:
            assert got == _first_refusal(model, per)

    for q in forms:
        got = _outcome(lambda: inverse_identity_check(q, model))
        link = _outcome(lambda: model.prime_of(q))
        if link[0] != "ok":
            assert got == link
            continue
        product = generator_e(q, model) * generator_e(link[1], model)
        per = _per_token(model, product.value_at)
        if got[0] != "ok":
            assert got == _first_refusal(model, per)
            continue
        assert {kind for kind, _ in per.values()} == {"ok"}
        assert got[1].failures == tuple(
            (t, v) for t, (_, v) in sorted(per.items()) if v != got[1].expected)

    for p, q in itertools.product(forms, repeat=2):
        got = _outcome(lambda: motivically_equivalent(ProjectiveQuadric(p), ProjectiveQuadric(q), model))
        # the Witt profiles compared at every token
        assert got == ("ok", p.dim == q.dim and all(
            model.witt_index(p, t) == model.witt_index(q, t) for t in tokens))


def test_a_declared_sweep_evaluates_once_per_witt_row():
    model = _row_group_models()["snapshot"]
    word = generator_e(model.form("(3,1)"), model) * generator_e(model.form("(2,2)"), model) ** -1
    assert len(model.extension_tokens()) == 30
    assert len(list(_sweep(word))) == 5
    assert sorted(word.fingerprint()) == model.extension_tokens()


# ------------------------------------------------------------ pic memo


atoms = st.tuples(st.sampled_from(["e", "det"]), st.sampled_from(["(1,0)", "(2,1)", "(10,3)", "c1"]))
words = st.lists(st.tuples(atoms, st.integers(-3, 3)), max_size=6)
twists = st.builds(TateTwist, st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=150, deadline=None)
@given(words, twists, words, twists, st.integers(-3, 3))
def test_fast_path_words_equal_the_sorted_construction(wa, ta, wb, tb, k):
    model = real_lattice([], depth=0)  # the words are only built, never evaluated
    a, b = PicElement(model, ta, wa), PicElement(model, tb, wb)
    # a list of pairs adds up the powers of a repeated atom
    sums = Counter()
    for atom, c in wa:
        sums[atom] += c
    assert dict(a.word) == {atom: c for atom, c in sums.items() if c}
    counts = Counter(dict(a.word))
    counts.update(dict(b.word))
    cases = [
        (a**k, k * ta, {atom: k * c for atom, c in a.word}),
        (a * identity(model), ta, a.word),
        (identity(model) * a, ta, a.word),
        (a * tate_element(model, tb), ta + tb, a.word),
        (tate_element(model, tb) * a, ta + tb, a.word),
        (a * b, ta + tb, counts),
    ]
    for element, tate, word in cases:
        reference = PicElement(model, tate, word)
        assert (element.tate, element.word) == (reference.tate, reference.word)


@settings(max_examples=60, deadline=None)
@given(signatures, st.data())
def test_det_memo_hits_equal_the_sorted_construction(pm, data):
    form = real(*pm)
    flag = data.draw(st.sampled_from([None, *all_flags(form)]))
    model = real_lattice([], depth=0)
    first = det(ProjectiveQuadric(form), model, flag=flag)
    hit = det(ProjectiveQuadric(form), model, flag=flag)
    fresh = det(ProjectiveQuadric(form), real_lattice([], depth=0), flag=flag)
    reference = PicElement(model, TateTwist(0, 0), dict(hit.word))
    assert hit.model is model and hit.tate == TateTwist(0, 0)
    assert hit.word == first.word == fresh.word == reference.word


def test_a_repeated_det_leaves_the_lattice_as_one_call_does():
    def build():
        return real_lattice([real(3, 1)], depth=1)

    flag = next(all_flags(real(7, 2)))
    once, twice = build(), build()
    for model, calls in ((once, 1), (twice, 2)):
        for _ in range(calls):
            det(quadric(7, 2), model)
            det(quadric(7, 2), model, flag=flag)
    assert once.form_keys() != build().form_keys()  # det registered its steps
    assert twice.form_keys() == once.form_keys()
    assert lattice_to_data(twice) == lattice_to_data(once)


def test_a_refused_det_is_refused_again():
    declared = declared_lattice_from_data(lattice_to_data(real_lattice([real(3, 1)], depth=1)))
    for _ in range(2):
        with pytest.raises(ModelError, match="in a declared lattice"):
            det(quadric(3, 1), declared)
    model = rich_lattice()
    for _ in range(2):
        with pytest.raises(ModelError, match="codimension-1"):
            det(quadric(3, 1), model, flag=[real(1, 1)])
        with pytest.raises(ModelError, match="not complete"):
            det(quadric(3, 1), model, flag=[real(3, 0)])
    assert not declared.memos["pic"]
    assert not any(key[0] == "det" for key in model.memos["pic"])


def test_declared_det_vector_appears_once_the_decomposition_is_declared():
    model = twin_declared_model()
    x = det(ProjectiveQuadric(model.form("P")), model)
    assert x.det_vector() is None
    declare_two_classes(model, "P")
    assert x.det_vector() == Counter(
        {(ClassKey("P", 0), "declared"): 1, (ClassKey("P", 1), "declared"): 1}
    )
    # e^P also needs the prime's decomposition, which nothing declares
    assert generator_e(model.form("P"), model).det_vector() is None


def test_a_copied_lattice_answers_as_the_original():
    def elements(model):
        return [
            det(quadric(5, 2), model),
            det(quadric(4, 0), model, flag=[real(3, 0), real(2, 0)]),
            generator_e(real(3, 1), model) * det(quadric(6, 1), model) ** -1,
        ]

    def answers(model):
        return [(x.word, x.det_vector(), x.base_value()) for x in elements(model)]

    model = rich_lattice()
    before = answers(model)
    assert {key[0] for key in model.memos["pic"]} == {"det", "class"}
    copied = copy.deepcopy(model)
    assert answers(copied) == before == answers(model)
    assert all(x.model is copied for x in elements(copied))
    P, Q = quadric(5, 2), quadric(2, 5)
    for lattice in (model, copied):
        assert motivically_equivalent(P, Q, lattice)
        assert relations_check([P], [Q], lattice) == RelationsVerdict(True, True)


def test_a_poisoned_det_entry_trips_both_cross_checks():
    # the class route of relations_check and the Witt route of
    # motivically_equivalent never read the pic memo, so a wrong det word
    # shows up as a disagreement instead of passing both sides
    model = rich_lattice()
    P, Q = quadric(3, 0), quadric(2, 1)
    wrong = det(Q, model).word
    det(P, model)
    model.memos["pic"][("det", "(3,0)", None)] = wrong
    with pytest.raises(DisagreementError):
        relations_check([P], [Q], model)
    with pytest.raises(DisagreementError):
        motivically_equivalent(P, Q, model)


def test_the_class_route_never_names_the_pic_memo():
    tree = ast.parse((SRC / "decomp.py").read_text(encoding="utf-8"))
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert "pic" not in constants
    # the tracer wraps plain functions only
    assert inspect.isfunction(quadpic.pic.det)
    assert inspect.isfunction(PicElement.__dict__["det_vector"])
    assert inspect.isfunction(PicElement.__dict__["value_at"])
