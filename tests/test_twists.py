import dataclasses
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from quadpic import (
    ModelError,
    ProjectiveQuadric,
    QuadraticForm,
    TateTwist,
    ZERO_TWIST,
    active_index,
    build_tower,
    declared_lattice_from_data,
    decompose_real,
    lattice_to_data,
    phi_affine,
    phi_det,
    real_lattice,
)
import quadpic.tower
import quadpic.twists
from quadpic.twists import split_quadric_sum
from summand_reference import phi_ratio_summand

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


@dataclasses.dataclass(frozen=True, order=True)
class OldTateTwist:
    """The frozen dataclass that TateTwist was, kept as the reference."""

    x: int = 0
    y: int = 0

    def __add__(self, other: "OldTateTwist") -> "OldTateTwist":
        return OldTateTwist(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "OldTateTwist") -> "OldTateTwist":
        return OldTateTwist(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "OldTateTwist":
        return OldTateTwist(-self.x, -self.y)

    def __rmul__(self, scalar: int) -> "OldTateTwist":
        return OldTateTwist(scalar * self.x, scalar * self.y)

    def __bool__(self) -> bool:
        return (self.x, self.y) != (0, 0)

    def render(self) -> str:
        return f"({self.x})[{self.y}]"

    __str__ = render

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y}

    @staticmethod
    def from_json(data: dict) -> "OldTateTwist":
        return OldTateTwist(int(data["x"]), int(data["y"]))


def _same(new, old) -> bool:
    return type(new) is TateTwist and (new.x, new.y) == (old.x, old.y)


pairs = st.tuples(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20))


@given(st.lists(pairs, min_size=1, max_size=6), st.integers(-10**6, 10**6))
def test_twist_agrees_with_the_old_dataclass(entries, k):
    new = [TateTwist(x, y) for x, y in entries]
    old = [OldTateTwist(x, y) for x, y in entries]
    for a, a_old in zip(new, old):
        assert _same(-a, -a_old)
        assert _same(k * a, k * a_old)
        assert bool(a) == bool(a_old)
        assert a.render() == a_old.render() == str(a) == str(a_old)
        assert a.to_json() == a_old.to_json()
        assert _same(TateTwist.from_json(a.to_json()), OldTateTwist.from_json(a_old.to_json()))
        for b, b_old in zip(new, old):
            assert _same(a + b, a_old + b_old)
            assert _same(a - b, a_old - b_old)
            assert (a == b) == (a_old == b_old)
            assert (a != b) == (a_old != b_old)
            assert (a < b) == (a_old < b_old)
            if a == b:
                assert hash(a) == hash(b)
    assert [hash(a) for a in new] == [hash(a) for a in old]
    assert [(t.x, t.y) for t in sorted(new)] == [(t.x, t.y) for t in sorted(old)]
    assert bool(TateTwist()) == bool(OldTateTwist()) is False


@pytest.mark.parametrize("cls", [TateTwist, OldTateTwist])
def test_twist_is_immutable(cls):
    t = cls(1, 2)
    with pytest.raises(AttributeError):
        t.x = 5
    with pytest.raises(AttributeError):
        t.z = 5
    assert (t.x, t.y) == (1, 2)


@given(twists, st.integers(-50, 50))
def test_twist_times_int_scales_and_never_repeats(t, k):
    assert t * k == k * t
    assert type(t * k) is TateTwist and len(t * k) == 2


@pytest.mark.parametrize(
    "combine",
    [
        lambda t: t + (1,),
        lambda t: t + (1, 2),
        lambda t: (1, 2) + t,
        lambda t: t - (1, 2),
        lambda t: t + 1,
        lambda t: sum([t]),
        lambda t: t * 2.5,
        lambda t: t * t,
        lambda t: [1] * t,
    ],
    ids=["short-tuple", "tuple", "tuple-left", "minus-tuple", "int", "sum", "float", "twist", "list"],
)
def test_twist_refuses_tuple_and_sequence_operations(combine):
    with pytest.raises(TypeError):
        combine(TateTwist(1, 2))


def test_twist_equals_and_hashes_as_its_plain_pair():
    # documented on the class: a twist is the pair (x, y) for ==, hash and <
    t = TateTwist(1, 2)
    assert t == (1, 2) and (1, 2) == t
    assert hash(t) == hash((1, 2))
    assert {t: "v"}[(1, 2)] == "v"
    assert t != (1, 2, 0) and t != [1, 2]
    assert t < (1, 3)
    assert "TateTwist(1, 2) == (1, 2)" in TateTwist.__doc__


def test_layer_functions_stay_plain_functions():
    # the per-layer tracer wraps only plain functions; a cache wrapper on
    # one of these would silently drop its spans and counts
    for fn in (
        quadpic.twists.split_quadric_sum,
        quadpic.twists.phi_affine,
        quadpic.twists.phi_det,
        quadpic.tower.active_index,
    ):
        assert inspect.isfunction(fn), fn


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


def _both_backends():
    source = real_lattice([real(2, 1), real(3, 1)], depth=2)
    return [source, declared_lattice_from_data(lattice_to_data(source))]


@pytest.mark.parametrize("backend", ["real", "declared"])
def test_warm_memos_still_refuse_unknown_tokens(backend):
    model = dict(zip(["real", "declared"], _both_backends()))[backend]
    q = model.form("(2,1)")
    quadric, tower = ProjectiveQuadric(q), build_tower(q, model)
    calls = [
        lambda t: model.witt_index(q, t),
        lambda t: phi_affine(q, t, model),
        lambda t: phi_det(quadric, t, model),
        lambda t: active_index(tower, t, model),
    ]
    for call in calls:
        for token in model.extension_tokens():
            call(token)
        with pytest.raises(ModelError, match="unknown extension 'nowhere'"):
            call("nowhere")


def test_warm_memos_refuse_the_other_backends_forms():
    # a declared id may spell a real key: a warm twist or tower memo must not
    # answer for the other kind of form
    source, declared = _both_backends()
    spelled = QuadraticForm.declared("(2,1)", 3)
    affine = phi_affine(real(2, 1), "base", source)
    det = phi_det(ProjectiveQuadric(real(2, 1)), "base", source)
    with pytest.raises(ModelError, match="declared form \\(2,1\\) has no prime link"):
        phi_affine(spelled, "base", source)
    with pytest.raises(ModelError, match="declared form \\(2,1\\) has no real signature"):
        phi_det(ProjectiveQuadric(spelled), "base", source)
    q = declared.form("(2,1)")
    assert active_index(build_tower(real(2, 1)), "base", source) == 3
    with pytest.raises(ModelError, match="has no real signature"):
        active_index(build_tower(q, declared), "base", source)

    assert phi_affine(q, "base", declared) == affine
    assert phi_det(ProjectiveQuadric(q), "base", declared) == det
    assert active_index(build_tower(q, declared), "base", declared) == 3
    for call in (
        lambda: phi_affine(real(2, 1), "base", declared),
        lambda: phi_det(ProjectiveQuadric(real(2, 1)), "base", declared),
        lambda: active_index(build_tower(real(2, 1)), "base", declared),
    ):
        with pytest.raises(ModelError, match="is not in the declared table"):
            call()


@pytest.mark.parametrize("backend", ["real", "declared"])
def test_empty_quadric_det_still_refuses_unknown_tokens(backend):
    # det of the empty quadric is (0)[0] at every extension the lattice has
    if backend == "real":
        model, point = real_lattice([], depth=0), real(1, 0)
    else:
        model, point = _both_backends()[1], QuadraticForm.declared("point", 1)
    empty = ProjectiveQuadric(point)
    assert phi_det(empty, model.base, model) == ZERO_TWIST
    with pytest.raises(ModelError, match="unknown extension 'nowhere'"):
        phi_det(empty, "nowhere", model)
