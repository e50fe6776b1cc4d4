import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadpic import (
    ModelError,
    QuadraticForm,
    TateTwist,
    active_index,
    build_tower,
    declared_lattice_from_data,
    lattice_to_data,
    phi_affine,
    real_lattice,
    twist_readoff,
)
from quadpic.acceptance import real_forms

real = QuadraticForm.real
signatures = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
    lambda pm: pm[0] + pm[1] >= 1
)


def test_tower_shapes():
    t = build_tower(real(1, 1))
    assert [(g.quadric.key, g.planes) for g in t.entries] == [("(2,1)", 0), ("(1,1)", 0)]
    t = build_tower(real(2, 2))
    assert [(g.quadric.key, g.planes) for g in t.entries] == [
        ("(3,2)", 0), ("(2,2)", 0), ("(3,2)", 1), ("(2,2)", 1),
    ]
    t = build_tower(real(1, 0))
    assert [(g.quadric.key, g.planes) for g in t.entries] == [("(1,1)", 0)]
    assert t.prime_quadric_dim == 0


def test_active_index_cases():
    model = real_lattice([], depth=0)
    # both anisotropic: nothing is pointed
    assert active_index(build_tower(real(0, 5)), model.base, model) == 0
    # j' = j = 1 lands on the even slot 2
    assert active_index(build_tower(real(1, 1)), model.base, model) == 2
    # j' = 1, j = 0 lands on the odd slot 1
    assert active_index(build_tower(real(4, 0)), model.base, model) == 1


def test_twist_readoff_formulas():
    assert twist_readoff(0, 6, 5) == TateTwist(0, 0)
    assert twist_readoff(4, 6, 5) == TateTwist(2, 4)
    assert twist_readoff(3, 6, 5) == TateTwist(4, 9)  # (N'-1)[2N'-1] at l = 1
    with pytest.raises(ValueError):
        twist_readoff(7, 6, 5)
    with pytest.raises(ValueError):
        twist_readoff(-1, 6, 5)


def test_twist_readoff_table_never_stores_a_refusal():
    for _ in range(2):
        with pytest.raises(ValueError, match="active index 7 outside"):
            twist_readoff(7, 6, 5)
    # a repeated answer is the first one, built once
    assert twist_readoff(3, 6, 5) is twist_readoff(3, 6, 5)


@given(signatures, st.lists(signatures, max_size=3))
@settings(deadline=None, max_examples=40)
def test_two_oracle_agreement_on_random_lattices(pm, others):
    q = real(*pm)
    model = real_lattice([q] + [real(*o) for o in others], depth=2)
    tower = build_tower(q)
    for token in model.extension_tokens():
        i = active_index(tower, token, model)
        assert twist_readoff(i, q.dim, tower.prime_quadric_dim) == phi_affine(
            q, token, model
        )


@given(signatures)
@settings(deadline=None, max_examples=30)
def test_active_index_monotone_up_the_lattice(pm):
    q = real(*pm)
    model = real_lattice([q], depth=3)
    tower = build_tower(q)
    for token in model.extension_tokens():
        here = active_index(tower, token, model)
        for ancestor in model.ancestors(token):
            assert active_index(tower, ancestor, model) <= here


def test_declared_forms_build_towers_through_the_prime_link():
    data = lattice_to_data(real_lattice([real(2, 1)], depth=1))
    model = declared_lattice_from_data(data)
    q = model.form("(2,1)")
    with pytest.raises(ModelError):
        build_tower(q)
    tower = build_tower(q, model)
    assert tower.prime_quadric_dim == 2
    # j = 1 and j' = 2 at the base, so the odd slot 3 is active
    assert active_index(tower, "base", model) == 3
    assert twist_readoff(3, 3, 2) == phi_affine(q, "base", model)


def test_downward_closure_violation_is_a_hard_error():
    # declared table where G(Q', 0) is unpointed but G(Q, 0) is pointed
    data = lattice_to_data(real_lattice([real(2, 1)], depth=0))
    for entry in data["witt"]:
        if entry["form"] == "(2,2)":  # the prime of (2,1)
            entry["index"] = 0
    model = declared_lattice_from_data(data, check=False)
    q = model.form("(2,1)")
    with pytest.raises(ModelError, match="downward closure violated"):
        active_index(build_tower(q, model), "base", model)


def test_active_index_probes_once_per_slot_and_group(monkeypatch):
    model = real_lattice(real_forms(8), depth=2)
    probes = []
    oracle = model.has_rational_point

    def counting(grass, extension):
        probes.append(extension)
        return oracle(grass, extension)

    monkeypatch.setattr(model, "has_rational_point", counting)
    tower = build_tower(real(5, 2))
    for token in model.extension_tokens():
        active_index(tower, token, model)
    # a fallback to token keys would probe the tower at every token
    assert len(model.extension_tokens()) > len(model.token_groups())
    assert len(probes) <= len(tower.entries) * len(model.token_groups())


def _criterion_1_mismatches(q, tower, model):
    """The tokens where the tower read-off and the closed-form twist differ."""
    return [
        token
        for token in model.extension_tokens()
        if twist_readoff(active_index(tower, token, model), q.dim, tower.prime_quadric_dim)
        != phi_affine(q, token, model)
    ]


def test_a_poisoned_memo_never_feeds_the_other_route():
    # each route keeps its own memo, so a wrong entry in one shows up as a
    # disagreement at every token of its group instead of passing both sides
    q = real(3, 1)
    tower = build_tower(q)
    model = real_lattice(real_forms(6), depth=2)
    group = max(model.token_groups(), key=len)
    token = group[0]
    assert len(group) > 1

    truth = phi_affine(q, token, model)
    ((affine, det),) = model.memos["twists"].values()  # the rows of the one group read
    (key,) = affine  # the one (group, form) entry phi_affine made
    assert not det
    affine[key] = truth + TateTwist(1, 0)
    assert phi_affine(q, token, model) != truth
    slot = active_index(tower, token, model)
    assert twist_readoff(slot, q.dim, tower.prime_quadric_dim) == truth
    assert _criterion_1_mismatches(q, tower, model) == sorted(group)

    model = real_lattice(real_forms(6), depth=2)
    clean = real_lattice(real_forms(6), depth=2)
    slot = active_index(tower, token, model)
    (row,) = model.memos["tower"].values()  # the row of the one group read
    (key,) = row  # the one (group, form) entry active_index made
    row[key] = slot - 1
    assert active_index(tower, token, model) == slot - 1
    for other in model.extension_tokens():
        assert phi_affine(q, other, model) == phi_affine(q, other, clean)
    assert _criterion_1_mismatches(q, tower, model) == sorted(group)


def _imports_and_memo_keys(module: str):
    """What a quadpic module imports from its siblings, and the memos it reads."""
    path = Path(__file__).resolve().parents[1] / "src" / "quadpic" / f"{module}.py"
    imported, memo_keys = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {(node.module, alias.name) for alias in node.names}
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "memos"
            and isinstance(node.slice, ast.Constant)
        ):
            memo_keys.add(node.slice.value)
    return imported, memo_keys


def test_the_two_routes_share_only_the_twist_type():
    # the read-off table and the tower memo live in tower, the split sums and
    # their memo in twists; neither module reaches into the other
    tower_imports, tower_memos = _imports_and_memo_keys("tower")
    twists_imports, twists_memos = _imports_and_memo_keys("twists")
    assert {name for module, name in tower_imports if module == "twists"} == {"TateTwist"}
    assert not any(module == "tower" for module, _ in twists_imports)
    assert tower_memos == {"tower"} and twists_memos == {"twists"}
