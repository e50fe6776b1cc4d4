import pytest
from hypothesis import given, settings, strategies as st

from quadpic import (
    ModelError,
    PhiFingerprint,
    ProjectiveQuadric,
    QuadraticForm,
    TateTwist,
    ZERO_TWIST,
    decompose_real,
    phi_affine,
    phi_det,
    phi_ratio_summand,
    real_lattice,
)
from quadpic.twists import split_quadric_sum

real = QuadraticForm.real
twists = st.builds(TateTwist, st.integers(-50, 50), st.integers(-50, 50))


@given(twists, twists, twists)
def test_twist_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO_TWIST == a
    assert a - a == ZERO_TWIST
    assert -1 * a == -a
    assert 3 * a == a + a + a


def test_twist_rendering_and_json():
    t = TateTwist(2, 5)
    assert t.render() == "(2)[5]"
    assert TateTwist.from_json(t.to_json()) == t


def test_split_quadric_sum_matches_the_literal_sum():
    for m in range(-1, 41):
        for j in range(31):
            literal = ZERO_TWIST
            for l in range(j):
                literal = literal + TateTwist(m - 2 * l, 2 * m - 4 * l + 1)
            assert split_quadric_sum(m, j) == literal, (m, j)


def fixture_lattice():
    return real_lattice(
        [real(p, n - p) for n in range(1, 7) for p in range(n + 1)], depth=2
    )


def test_phi_affine_zero_when_both_sides_anisotropic():
    model = fixture_lattice()
    # (0,5) and its prime (6,0) are both anisotropic at the base
    assert phi_affine(real(0, 5), model.base, model) == ZERO_TWIST


def test_phi_affine_hyperbolic_plane_matches_split_value():
    model = fixture_lattice()
    for token in model.extension_tokens():
        assert phi_affine(real(1, 1), token, model) == TateTwist(1, 2)


def test_phi_affine_single_upper_term():
    # j_P' = 1, j_P = 0, dim(Q') = 3 gives the one-term value (3)[7]
    model = fixture_lattice()
    assert phi_affine(real(4, 0), model.base, model) == TateTwist(3, 7)


@given(st.integers(1, 6))
@settings(deadline=None, max_examples=12)
def test_phi_affine_of_split_forms_is_the_split_twist(n):
    q = real((n + 1) // 2, n // 2)
    model = real_lattice([q], depth=2)
    expected = TateTwist(n // 2, n)
    for token in model.extension_tokens():
        assert phi_affine(q, token, model) == expected


def test_phi_det_values():
    model = fixture_lattice()
    assert phi_det(ProjectiveQuadric(real(5, 0)), model.base, model) == ZERO_TWIST
    assert phi_det(ProjectiveQuadric(real(3, 1)), model.base, model) == TateTwist(2, 5)
    assert phi_det(ProjectiveQuadric(real(2, 2)), model.base, model) == TateTwist(2, 6)
    assert phi_det(ProjectiveQuadric(real(1, 0)), model.base, model) == ZERO_TWIST


def test_phi_ratio_of_rost_summand():
    model = fixture_lattice()
    dec = decompose_real(real(4, 0), model)
    summand = dec.summands[0]
    assert summand.kind == "rost:2" and summand.shift == 0
    assert phi_ratio_summand(summand, model.base, model) == ZERO_TWIST
    level1 = model.extend_by_function_field(model.base, ProjectiveQuadric(real(2, 0)))
    assert phi_ratio_summand(summand, level1, model) == TateTwist(1, 3)


def test_phi_ratio_is_shift_invariant_and_additive():
    model = fixture_lattice()
    dec = decompose_real(real(4, 0), model)
    first, second = dec.summands
    assert first.shift != second.shift
    level1 = model.extend_by_function_field(model.base, ProjectiveQuadric(real(2, 0)))
    for token in (model.base, level1):
        assert phi_ratio_summand(first, token, model) == phi_ratio_summand(
            second, token, model
        )
    # additivity over a direct sum is addition of the values
    total = phi_ratio_summand(first, level1, model) + phi_ratio_summand(
        second, level1, model
    )
    assert total == TateTwist(2, 6)


@given(st.integers(1, 4))
@settings(deadline=None, max_examples=8)
def test_rost_ratio_closed_form(r):
    # a split rost:r contributes (2^(r-1) - 1)[2^r - 1]
    model = real_lattice([real(2**r, 0)], depth=0)
    dec = decompose_real(real(2**r, 0), model)
    level1 = model.extend_by_function_field(model.base, ProjectiveQuadric(real(2, 0)))
    expected = TateTwist(2 ** (r - 1) - 1, 2**r - 1)
    assert phi_ratio_summand(dec.summands[0], level1, model) == expected


def test_declared_summands_have_no_ratio_data():
    from quadpic.decomp import ClassKey, Summand

    model = fixture_lattice()
    orphan = Summand(ClassKey("(3,0)", 0), 0, "declared")
    with pytest.raises(ModelError):
        phi_ratio_summand(orphan, model.base, model)


def test_fingerprint_algebra():
    a = PhiFingerprint({"base": TateTwist(1, 2), "e": TateTwist(3, 4)})
    b = PhiFingerprint({"base": TateTwist(0, 1), "e": TateTwist(2, 3)})
    assert (a - b).is_constant() == TateTwist(1, 1)
    assert a.constant_difference(b) == TateTwist(1, 1)
    assert (a + b).entries["e"] == TateTwist(5, 7)
    assert 2 * a == a + a
    assert PhiFingerprint.from_json(a.to_json()) == a
    c = PhiFingerprint({"base": TateTwist(1, 2), "e": TateTwist(9, 9)})
    assert a.constant_difference(c) is None
