import pytest
from hypothesis import given, strategies as st

from quadpic import (
    Grassmannian,
    ProjectiveQuadric,
    QuadraticForm,
    pfister_real,
    prime,
    real_form_from_key,
    real_lattice,
)

signatures = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda pm: pm[0] + pm[1] >= 1
)


def real(p, m):
    return QuadraticForm.real(p, m)


def test_doctests():
    import doctest

    import quadpic.forms

    failed, _ = doctest.testmod(quadpic.forms)
    assert failed == 0


def test_prime_examples():
    assert prime(real(0, 2)) == real(3, 0)
    assert prime(real(1, 1)) == real(2, 1)


@given(signatures)
def test_prime_raises_dimension_by_one(pm):
    q = real(*pm)
    assert prime(q).dim == q.dim + 1


@given(signatures)
def test_double_prime_adds_a_hyperbolic_plane(pm):
    p, m = pm
    assert prime(prime(real(p, m))) == real(p + 1, m + 1)


def test_pfister_real():
    assert pfister_real(1) == real(2, 0)
    assert pfister_real(3) == real(8, 0)
    with pytest.raises(ValueError):
        pfister_real(0)


def test_pfister_pure_part_pair():
    # q_a = <1> + (-pure part), with the pure part negative definite
    for r in (1, 2, 3, 4):
        pure = real(0, 2**r - 1)
        assert prime(pure) == pfister_real(r)


def test_form_key_roundtrip():
    for p, m in [(0, 1), (3, 2), (10, 0)]:
        assert real_form_from_key(real(p, m).key) == real(p, m)
    with pytest.raises(ValueError):
        real_form_from_key("q17")


def test_invalid_signatures_rejected():
    with pytest.raises(ValueError):
        QuadraticForm.real(0, 0)
    with pytest.raises(ValueError):
        QuadraticForm.real(-1, 2)
    with pytest.raises(ValueError):
        QuadraticForm.declared("", 3)


def test_real_forms_are_interned():
    assert QuadraticForm.real(3, 2) is QuadraticForm.real(3, 2)
    assert prime(real(2, 3)) is real(4, 2)
    assert real(2, 3).negated() is real(3, 2)
    with pytest.raises(ValueError):
        QuadraticForm.real(0, 0)
    with pytest.raises(ValueError):
        QuadraticForm.real(-1, 2)


def test_quadric_dimension_and_empty_flag():
    assert ProjectiveQuadric(real(5, 0)).dim == 3
    assert ProjectiveQuadric(real(1, 0)).is_empty
    assert not ProjectiveQuadric(real(2, 0)).is_empty


def test_quadric_identity_is_sign_canonical():
    assert ProjectiveQuadric(real(0, 3)).key == ProjectiveQuadric(real(3, 0)).key
    assert ProjectiveQuadric(real(2, 5)).key == "(5,2)"


def test_grassmannian_plane_range():
    quadric = ProjectiveQuadric(real(6, 0))  # dim 4
    Grassmannian(quadric, 2)
    with pytest.raises(ValueError):
        Grassmannian(quadric, 3)
    with pytest.raises(ValueError):
        Grassmannian(quadric, -1)


def test_witt_decomposition_examples():
    model = real_lattice([real(5, 0)], depth=1)
    assert model.witt_index(real(3, 2), model.base) == 2
    assert model.anisotropic_part(real(3, 2), model.base) == real(1, 0)
    assert model.witt_index(real(4, 4), model.base) == 4
    assert model.anisotropic_part(real(4, 4), model.base) is None
    own = model.extend_by_function_field(model.base, ProjectiveQuadric(real(5, 0)))
    assert model.witt_index(real(5, 0), own) == 1
    assert model.anisotropic_part(real(5, 0), own).dim == 3


@given(signatures, st.integers(0, 2))
def test_witt_decomposition_is_idempotent(pm, hops):
    # q = anisotropic kernel + i_W hyperbolic planes, and the kernel is anisotropic
    model = real_lattice([real(*pm)], depth=hops)
    token = model.extension_tokens()[-1]
    kernel = model.anisotropic_part(real(*pm), token)
    kernel_dim = kernel.dim if kernel is not None else 0
    assert 2 * model.witt_index(real(*pm), token) + kernel_dim == real(*pm).dim
    if kernel is not None:
        assert model.witt_index(kernel, token) == 0
        assert model.anisotropic_part(kernel, token) == kernel
