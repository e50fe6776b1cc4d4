import copy
import hashlib
import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadpic import (
    DeclaredLattice,
    Extension,
    Grassmannian,
    ModelError,
    ProjectiveQuadric,
    ProjectorTower,
    QuadraticForm,
    RealLattice,
    active_index,
    build_tower,
    declared_lattice_from_data,
    fields,
    generator_e,
    lattice_to_data,
    modelfile,
    parse_model,
    phi_affine,
    phi_det,
    prime,
    real_lattice,
    serialize_model,
    twist_readoff,
)
from quadpic.acceptance import real_forms
from quadpic.modelfile import _SCHEMA, DECOMPOSITION_SHAPE, check_json
from test_cli_corpus import TWINS

real = QuadraticForm.real
signatures = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda pm: pm[0] + pm[1] >= 1
)


def quadric(p, m):
    return ProjectiveQuadric(real(p, m))


# ----------------------------------------------------------- Witt indices


def test_witt_index_at_the_base_is_min_of_signature():
    model = real_lattice([real(3, 2)], depth=0)
    assert model.witt_index(real(3, 2), model.base) == 2


def test_witt_index_of_pfister_neighbour_at_level_four():
    # first Witt index of the 5-dimensional sum of squares is 5 - 4 = 1
    model = real_lattice([], depth=0)
    level4 = model.extend_by_function_field(model.base, quadric(5, 0))
    assert model.level(level4) == 4
    assert model.witt_index(real(5, 0), level4) == 1
    # the ambient 3-fold definite Pfister form splits completely there
    assert model.witt_index(real(8, 0), level4) == 4


def test_function_field_levels():
    model = real_lattice([], depth=0)
    assert model.level(model.extend_by_function_field(model.base, quadric(2, 0))) == 1
    conic = model.extend_by_function_field(model.base, quadric(3, 0))
    assert model.level(conic) == 2
    # isotropic quadrics are rational: purely transcendental, level kept
    again = model.extend_by_function_field(conic, quadric(3, 0))
    assert model.level(again) == 2


@given(st.integers(2, 16))
@settings(deadline=None, max_examples=15)
def test_first_witt_index_of_definite_forms(d):
    # a d-dimensional definite form is a neighbour of the 2^r-dimensional
    # definite Pfister form, so over its own function field exactly
    # d - 2^(r-1) hyperbolic planes split off
    model = real_lattice([], depth=0)
    own = model.extend_by_function_field(model.base, quadric(d, 0))
    half = 1 << (d - 1).bit_length() - 1
    assert model.witt_index(real(d, 0), own) == d - half


def test_empty_quadric_has_no_function_field():
    model = real_lattice([], depth=0)
    with pytest.raises(ModelError):
        model.extend_by_function_field(model.base, quadric(1, 0))


def test_unknown_extension_is_an_error():
    model = real_lattice([], depth=0)
    with pytest.raises(ModelError):
        model.witt_index(real(1, 0), "nowhere")


def test_witt_index_computes_once_per_form_and_level(monkeypatch):
    model = real_lattice(real_forms(8), depth=2)
    model._witt_memo.clear()
    computed = []
    balanced = fields._balanced

    def counting(value, level):
        computed.append(level)
        return balanced(value, level)

    monkeypatch.setattr(fields, "_balanced", counting)
    forms = [model.form(key) for key in model.form_keys()]
    for q in forms:
        for token in model.extension_tokens():
            model.witt_index(q, token)
    # a fallback to token keys would compute once per (form, token)
    assert len(model.extension_tokens()) > len(model.token_groups())
    assert len(computed) <= len(forms) * len(model.token_groups())


def _memoized_answers(lattice, q, token):
    """What each memoized oracle, and the read-off table, gives for q at the token."""
    tower = build_tower(q, lattice)
    slot = active_index(tower, token, lattice)
    return (
        lattice.witt_index(q, token),
        phi_affine(q, token, lattice),
        phi_det(ProjectiveQuadric(q), token, lattice),
        slot,
        twist_readoff(slot, q.dim, tower.prime_quadric_dim),
    )


def _memo_entries(model):
    """The (group, form) entries of the Witt, twist and tower memos, counted per memo."""
    return [
        sum(map(len, model._witt_memo.values())),
        sum(len(affine) + len(det) for affine, det in model.memos["twists"].values()),
        sum(map(len, model.memos["tower"].values())),
    ]


def test_token_added_at_a_known_level_answers_from_the_memo():
    forms = real_forms(6)
    model = real_lattice(forms, depth=1)
    before = set(model.extension_tokens())
    levels = {model.level(token) for token in before}
    for q in forms:
        for token in before:
            _memoized_answers(model, q, token)

    deep = real(6, 0)
    tower = Grassmannian(ProjectiveQuadric(deep), deep.dim // 2 - 1)
    model.extend_by_grassmannian(model.base, tower)
    added = [t for t in model._extensions if t not in before]
    assert added and all(model.level(t) in levels for t in added)
    sizes = _memo_entries(model)
    assert all(sizes)

    fresh = real_lattice(forms, depth=1)
    fresh_before = set(fresh._extensions)
    fresh.extend_by_grassmannian(fresh.base, tower)
    assert [t for t in fresh._extensions if t not in fresh_before] == added

    for q in forms:
        for token in added:
            assert _memoized_answers(model, q, token) == _memoized_answers(fresh, q, token)
    assert _memo_entries(model) == sizes


# ----------------------------------------------------------- rational points


def test_has_rational_point_examples():
    model = real_lattice([], depth=0)
    assert model.has_rational_point(Grassmannian(quadric(2, 2), 0), model.base)
    assert not model.has_rational_point(Grassmannian(quadric(5, 0), 0), model.base)
    own = model.extend_by_function_field(model.base, quadric(5, 0))
    assert model.has_rational_point(Grassmannian(quadric(5, 0), 0), own)
    # the plane range is Grassmannian's rule: G(Q, 2) of a conic is never built
    with pytest.raises(ValueError, match="plane level out of range"):
        Grassmannian(quadric(5, 0), 2)


def test_stably_birational_examples():
    model = real_lattice([], depth=0)
    g30 = Grassmannian(quadric(3, 0), 0)
    g50 = Grassmannian(quadric(5, 0), 0)
    g60 = Grassmannian(quadric(6, 0), 0)
    assert model.stably_birational(g50, g50)
    assert not model.stably_birational(g30, g50)
    # both are neighbours of the 3-fold definite Pfister form
    assert model.stably_birational(g50, g60)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(2, 9), min_size=3, max_size=3))
def test_stably_birational_is_transitive(dims):
    model = real_lattice([], depth=0)
    gs = [Grassmannian(quadric(d, 0), 0) for d in dims]
    for a, b, c in itertools.permutations(gs, 3):
        if model.stably_birational(a, b) and model.stably_birational(b, c):
            assert model.stably_birational(a, c)


def test_grassmannian_function_field_reaches_deeper_splitting():
    model = real_lattice([], depth=0)
    token = model.extend_by_grassmannian(model.base, Grassmannian(quadric(8, 0), 1))
    # over k(G(Q,1)) the form has at least two hyperbolic planes
    assert model.witt_index(real(8, 0), token) >= 2


# ------------------------------------------------------------- splitting


@given(signatures)
@settings(deadline=None, max_examples=40)
def test_full_splitting_tower_reaches_maximal_witt_index(pm):
    q = real(*pm)
    model = real_lattice([q], depth=0)
    top = model.base if q.dim < 2 else model.extend_by_grassmannian(
        model.base, Grassmannian(ProjectiveQuadric(q), q.dim // 2 - 1))
    assert model.witt_index(q, top) == q.dim // 2


@given(signatures, signatures)
@settings(deadline=None, max_examples=30)
def test_witt_monotone_along_ancestors(pm, other):
    model = real_lattice([real(*pm), real(*other)], depth=2)
    q = real(*pm)
    for token in model.extension_tokens():
        for ancestor in model.ancestors(token):
            assert model.witt_index(q, ancestor) <= model.witt_index(q, token)


def test_levels_never_increase_down_a_tower():
    model = real_lattice([real(p, n - p) for n in range(1, 9) for p in range(n + 1)], depth=3)
    for token in model.extension_tokens():
        for ancestor in model.ancestors(token):
            assert model.level(token) <= model.level(ancestor)


# ------------------------------------------------------------- validation


@settings(deadline=None, max_examples=15)
@given(st.lists(signatures, min_size=1, max_size=4), st.integers(0, 3))
def test_real_lattices_always_validate(sigs, depth):
    model = real_lattice([real(*pm) for pm in sigs], depth=depth)
    assert model.validate().ok


def test_real_lattice_stops_once_a_round_adds_no_node(monkeypatch):
    # (1,0) has no function field, so the base is the only node at any depth
    shallow = lattice_to_data(real_lattice([real(1, 0)], depth=3))
    form_keys = fields.RealLattice.form_keys
    rounds = []

    def counted(self):
        rounds.append(1)
        assert len(rounds) <= 3, "real_lattice kept going after a round added no node"
        return form_keys(self)

    monkeypatch.setattr(fields.RealLattice, "form_keys", counted)
    deep = real_lattice([real(1, 0)], depth=10**6)
    monkeypatch.undo()
    assert len(rounds) == 1
    assert lattice_to_data(deep) == shallow


def _reference_real_lattice(forms, depth):
    """real_lattice's rounds with a kernel per registered form, not per pos - neg."""
    model = fields.RealLattice()
    model.add_extension(Extension("base", None, "base"), level=fields.INFINITE_LEVEL)
    for q in forms:
        model.register_form(q)
    frontier = [model.base]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        round_keys = model.form_keys()
        children = {}
        for token in frontier:
            level = model.level(token)
            known = children.get(level)
            if known is not None:
                for key, child_level in known:
                    next_frontier.append(model.add_extension(
                        Extension(f"{token}/{key}", token, f"ff:{key}"), child_level
                    ))
                continue
            known = children[level] = []
            for key in round_keys:
                kernel = model.anisotropic_part(model.form(key), token)
                if kernel is None or kernel.dim < 2:
                    continue
                quadric = ProjectiveQuadric(kernel)
                if f"{token}/{quadric.key}" in model._extensions:
                    continue
                child = model.extend_by_function_field(token, quadric)
                known.append((quadric.key, model.level(child)))
                next_frontier.append(child)
        frontier = next_frontier
    return model


# each signature comes with copies plus hyperbolic planes, so that several
# registered forms share one pos - neg
signature_families = st.lists(
    st.tuples(signatures, st.lists(st.integers(1, 3), max_size=2)), min_size=1, max_size=4
).map(lambda drawn: [real(p + h, m + h) for (p, m), planes in drawn for h in (0, *planes)])


@settings(deadline=None, max_examples=40)
@given(signature_families, st.integers(0, 3))
def test_real_lattice_matches_the_per_form_reference_builder(forms, depth):
    model = real_lattice(forms, depth=depth)
    reference = _reference_real_lattice(forms, depth)
    assert lattice_to_data(model) == lattice_to_data(reference)
    assert model.token_groups() == reference.token_groups()
    assert list(model._extensions) == list(reference._extensions)


def test_real_lattice_computes_one_kernel_per_level_and_difference(monkeypatch):
    calls = []
    anisotropic_part = fields.RealLattice.anisotropic_part

    def counted(self, q, extension):
        # the round of a node is its number of slashes
        calls.append((extension.count("/"), self.level(extension), q.pos - q.neg))
        return anisotropic_part(self, q, extension)

    monkeypatch.setattr(fields.RealLattice, "anisotropic_part", counted)
    model = real_lattice(real_forms(12), depth=2)
    monkeypatch.undo()
    differences = {q.pos - q.neg for q in map(model.form, model.form_keys())}
    levels_per_round = {
        (tok.count("/"), model.level(tok)) for tok in model.extension_tokens() if tok.count("/") < 2
    }
    assert len(calls) == len(set(calls)) == len(levels_per_round) * len(differences)


def declared_fixture():
    return lattice_to_data(real_lattice([real(3, 0), real(2, 1)], depth=2))


@settings(deadline=None, max_examples=15)
@given(st.lists(signatures, min_size=1, max_size=3), st.integers(0, 2))
def test_lattice_snapshot_round_trip(sigs, depth):
    source = real_lattice([real(*pm) for pm in sigs], depth=depth)
    data = lattice_to_data(source)
    rebuilt = declared_lattice_from_data(data)
    assert rebuilt.extension_tokens() == source.extension_tokens()
    for key in source.form_keys():
        for token in source.extension_tokens():
            assert rebuilt.witt_index(rebuilt.form(key), token) == source.witt_index(
                source.form(key), token
            )


def test_declared_fixture_validates_and_round_trips():
    data = declared_fixture()
    text = serialize_model(data)
    assert parse_model(serialize_model(parse_model(text))) == parse_model(text)
    assert serialize_model(parse_model(text)) == text
    model = declared_lattice_from_data(data)
    assert model.validate().ok
    assert model.prime_of(model.form("(3,0)")).key == "(1,3)"


def _set_index(data, form, ext, value):
    for entry in data["witt"]:
        if entry["form"] == form and entry["extension"] == ext:
            entry["index"] = value
            return
    raise KeyError((form, ext))


def test_monotonicity_violation_reported():
    # i_W of (3,0) decreasing up the tower base -> base/(3,0) -> deeper
    data = declared_fixture()
    deeper = next(
        e["id"] for e in data["extensions"] if e.get("parent") not in (None, "base")
    )
    _set_index(data, "(3,0)", deeper, 0)
    model = declared_lattice_from_data(data, check=False)
    report = model.validate()
    assert any(v.family == "monotonicity" for v in report.violations)


def test_step_violation_reported():
    data = declared_fixture()
    _set_index(data, "(1,3)", "base", 2)  # j_P' = j_P + 2 at the base
    model = declared_lattice_from_data(data, check=False)
    report = model.validate()
    assert any(v.family == "codim-1-step" for v in report.violations)


def test_ceiling_violation_reported():
    data = declared_fixture()
    _set_index(data, "(2,1)", "base", 2)
    model = declared_lattice_from_data(data, check=False)
    assert any(v.family == "ceiling" for v in model.validate().violations)


def test_a_lattice_without_a_table_fails_only_the_table_family():
    model = DeclaredLattice()
    for key, dim in (("c2", 3), ("c1", 3), ("b", 2)):
        model.register_form(QuadraticForm.declared(key, dim))
    for token, parent, construction in [
        ("k", None, "base"), ("z", "k", "ff:c1"), ("m", "k", "ff:c2"), ("a", "z", "join:z|m"),
    ]:
        model.add_extension(Extension(token, parent, construction))
    got = [(v.family, v.form, v.extension, v.detail) for v in model.validate().violations]
    assert got == [
        ("table", key, token, f"no declared Witt index for form {key} at {token}")
        for key in ("b", "c1", "c2") for token in ("a", "k", "m", "z")
    ]


def test_checked_loading_rejects_invalid_tables():
    data = declared_fixture()
    _set_index(data, "(2,1)", "base", 2)
    with pytest.raises(ModelError):
        declared_lattice_from_data(data)


def _reference_violations(model):
    """validate() written out cell by cell, with ancestors in sorted order."""
    forms = [model.form(k) for k in model.form_keys()]
    tokens = model.extension_tokens()
    table, out = {}, []
    for q in forms:
        for t in tokens:
            try:
                table[(q.key, t)] = model.witt_index(q, t)
            except ModelError as exc:
                out.append(("table", q.key, t, str(exc)))
    if out:
        return out
    for q in forms:
        for t in tokens:
            value = table[(q.key, t)]
            if not 0 <= value <= q.dim // 2:
                out.append(("ceiling", q.key, t, f"i_W = {value} outside [0, {q.dim // 2}]"))
    for t in tokens:
        for anc in sorted(model.ancestors(t)):
            for q in forms:
                lo, hi = table[(q.key, anc)], table[(q.key, t)]
                if lo > hi:
                    out.append(("monotonicity", q.key, t, f"i_W drops from {lo} at {anc} to {hi}"))
    for q in forms:
        p = model.registered_prime(q)
        for t in tokens if p is not None else ():
            low, high = table[(q.key, t)], table[(p.key, t)]
            if not low <= high <= low + 1:
                out.append(("codim-1-step", q.key, t,
                            f"i_W({q.key}) = {low} vs i_W({p.key}) = {high}"))
    for t in tokens:
        own = fields.parse_construction(model.extension(t).construction)
        if own.kind not in ("ff", "gff"):
            continue
        try:
            q = model.form(own.form)
            value = model.witt_index(q, t)
        except ModelError as exc:
            out.append(("self-isotropy", own.form, t, f"unresolvable: {exc}"))
            continue
        if q.dim >= 2 and value <= own.planes:
            out.append(("self-isotropy", q.key, t,
                        f"i_W = {value} over its own function field (need > {own.planes})"))
    return out


def _with_extension(data, token, parent, construction):
    """data plus one extension, whose Witt row copies its parent's."""
    out = copy.deepcopy(data)
    out["extensions"].append({"id": token, "parent": parent, "construction": construction})
    out["witt"] += [{**e, "extension": token} for e in data["witt"] if e["extension"] == parent]
    return out


def test_validate_matches_the_cell_by_cell_reference_on_corrupted_tables():
    data = declared_fixture()
    deeper = [e["id"] for e in data["extensions"] if e.get("parent") not in (None, "base")]
    corruptions = [
        [("(3,0)", deeper[0], 0)],
        [("(1,3)", "base", 2)],
        [("(2,1)", "base", 2)],
        [("(3,0)", t, 0) for t in deeper] + [("(2,1)", "base", 2), ("(1,3)", "base", 2)],
        [(e["form"], e["extension"], 0) for e in data["witt"] if e["extension"] == "base"]
        + [("(2,2)", "base", 3)],
        # self-isotropy: each node split by its own quadric loses that point
        [("(3,0)", "base/(3,0)", 0), ("(2,0)", "base/(2,0)", 0)],
        [("(2,0)", t, 0) for t in ("base/(2,0)", "base/(3,0)/(2,0)")] + [("(2,1)", "base", 2)],
    ]
    cases = [(data, edits) for edits in corruptions]
    # constructions that name an unknown form, or that need more than one plane
    for construction in ("ff:zz", "gff:zz:1", "gff:(3,0):1", "gff:(2,2):2", "gff:(1,3):1"):
        cases.append((_with_extension(data, "X", "base/(3,0)", construction), []))
    cases.append((_with_extension(data, "X", "base", "ff:zz"), [("(3,0)", "X", 2)]))
    # a join lies above each constituent, not only its parent: c2 drops from
    # k(c2) to k(c1,c2), and from nowhere else
    cases.append((TWINS, [("c2", "k(c1)", 0), ("c2", "k(c1,c2)", 0)]))
    # many tokens share each row: corrupt a token whose row others use, and
    # several tokens of one row alike, so that they share the corrupted row
    shared = lattice_to_data(real_lattice(real_forms(6), 2))
    level_two = ["base/(2,0)", "base/(3,0)/(2,0)", "base/(4,0)/(2,0)", "base/(7,0)/(2,0)"]
    cases += [
        (shared, [("(4,0)", "base/(4,0)", 0)]),
        (shared, [("(5,0)", "base/(5,0)/(4,0)", 3), ("(1,1)", "base/(6,0)", 0)]),
        (shared, [("(5,0)", t, 0) for t in level_two]),
        (shared, [("(3,3)", t, 1) for t in level_two] + [("(6,0)", "base", 4)]),
    ]
    for source, edits in cases:
        bad = parse_model(serialize_model(source))
        for form, ext, value in edits:
            _set_index(bad, form, ext, value)
        model = declared_lattice_from_data(bad, check=False)
        got = [(v.family, v.form, v.extension, v.detail) for v in model.validate().violations]
        assert got, edits
        assert got == _reference_violations(model)
    # seeded corruptions of 1-4 cells of shared, with values up to one past the
    # ceiling: several forms fail the ceiling and the step at several tokens,
    # which pins the report order, form by form and then token by token
    rng = random.Random(21)
    dims = {f["id"]: f["dim"] for f in shared["forms"]}
    shared_tokens = [e["id"] for e in shared["extensions"]]
    spread = {"ceiling": 0, "codim-1-step": 0}
    for _ in range(240):
        bad = copy.deepcopy(shared)
        for _ in range(rng.randint(1, 4)):
            form = rng.choice(sorted(dims))
            _set_index(bad, form, rng.choice(shared_tokens), rng.randint(0, dims[form] // 2 + 1))
        model = declared_lattice_from_data(bad, check=False)
        got = [(v.family, v.form, v.extension, v.detail) for v in model.validate().violations]
        assert got == _reference_violations(model)
        for family in spread:
            cells = [(form, tok) for fam, form, tok, _ in got if fam == family]
            spread[family] += len({f for f, _ in cells}) > 1 and len({t for _, t in cells}) > 1
    assert min(spread.values()) >= 10, spread
    # seeded corruptions of models with joins and gff nodes: TWINS, and shared
    # with a join of two of its nodes added, corrupted at the join and at them
    joined = _with_extension(shared, "J", "base/(2,0)", "join:base/(2,0)|base/(4,0)")
    assert declared_lattice_from_data(joined).validate().ok
    # the constituent of each join that is not its parent
    other = {"k(c1,c2)": "k(c2)", "J": "base/(4,0)"}
    join_drops = 0
    for source, tokens in (
        (TWINS, [e["id"] for e in TWINS["extensions"]]),
        (joined, ["J", "base/(2,0)", "base/(4,0)"]),
    ):
        dims = {f["id"]: f["dim"] for f in source["forms"]}
        for _ in range(120):
            bad = copy.deepcopy(source)
            for _ in range(rng.randint(1, 3)):
                form = rng.choice(sorted(dims))
                _set_index(bad, form, rng.choice(tokens), rng.randint(0, dims[form] // 2 + 1))
            model = declared_lattice_from_data(bad, check=False)
            got = [(v.family, v.form, v.extension, v.detail) for v in model.validate().violations]
            assert got == _reference_violations(model)
            join_drops += any(family == "monotonicity" and f"at {other.get(tok)} to" in detail
                              for family, _, tok, detail in got)
    assert join_drops >= 10, join_drops


def test_validate_reads_ancestors_only_when_an_edge_drops(monkeypatch):
    data = declared_fixture()
    joined = _with_extension(data, "J", "base/(2,0)", "join:base/(2,0)|base/(3,0)")
    calls = []
    real_ancestors = fields.ExtensionLattice.ancestors
    monkeypatch.setattr(fields.ExtensionLattice, "ancestors",
                        lambda self, token: calls.append(token) or real_ancestors(self, token))
    for source in (data, joined, TWINS):
        assert declared_lattice_from_data(source).validate().ok
    assert real_lattice(real_forms(8), 3).validate().ok
    assert calls == []
    bad = parse_model(serialize_model(data))
    deeper = next(e["id"] for e in bad["extensions"] if e.get("parent") not in (None, "base"))
    _set_index(bad, "(3,0)", deeper, 0)
    report = declared_lattice_from_data(bad, check=False).validate()
    assert "monotonicity" in {v.family for v in report.violations}
    assert calls


def test_witt_memo_hit_still_refuses_the_other_backends_forms():
    # a declared id may spell a real key: a warm memo or table must not let
    # the other kind of form through
    model = real_lattice([real(1, 1)], depth=1)
    spelled = QuadraticForm.declared("(1,1)", 2)
    assert model.witt_index(real(1, 1), "base") == 1
    with pytest.raises(ModelError, match="declared form \\(1,1\\) has no real signature"):
        model.witt_index(spelled, "base")
    with pytest.raises(ModelError, match="declared form \\(1,1\\) has no real signature"):
        model.anisotropic_part(spelled, "base")
    with pytest.raises(ModelError, match="declared form \\(1,1\\) in a real lattice"):
        model.register_form(spelled)
    assert model.form("(1,1)").is_real

    declared = declared_lattice_from_data(lattice_to_data(model))
    assert declared.witt_index(declared.form("(1,1)"), "base") == 1
    assert declared.anisotropic_part(declared.form("(1,1)"), "base") is None
    with pytest.raises(ModelError, match="real form \\(1,1\\) is not in the declared table"):
        declared.witt_index(real(1, 1), "base")
    with pytest.raises(ModelError, match="real form \\(1,1\\) is not in the declared table"):
        declared.anisotropic_part(real(1, 1), "base")
    with pytest.raises(ModelError, match="real form \\(1,1\\) in a declared lattice"):
        declared.register_form(real(1, 1))
    with pytest.raises(ModelError, match="unknown extension 'nowhere'"):
        declared.witt_index(declared.form("(1,1)"), "nowhere")
    assert not declared.form("(1,1)").is_real


def test_both_backends_refuse_an_unknown_form_key_alike():
    model = real_lattice([], depth=0)
    declared = declared_lattice_from_data(lattice_to_data(real_lattice([real(1, 1)], depth=0)))
    for lattice in (model, declared):
        # an unregistered real key is refused too
        for key in ("c1", "(0,0)", "(1,x)", "(7,2)"):
            with pytest.raises(ModelError, match=re.escape(f"unknown form {key!r}")):
                lattice.form(key)


def _digest(value) -> str:
    return hashlib.sha256(value.encode()).hexdigest()


SNAPSHOTS = [
    (8, 3, "611f7ce3874502281eb0d04c65413c70501bff4a2e0593eedf67a9a1f6f95a08",
     "87a09adced5c88e6ece1b27d8ef9398c50f9fa963f248df4ffee9793b157f5a4"),
    (10, 3, "3fef7d9cfa85a67b34ed7b1dc92a85deff1874da5582c359b68fe27eafbef2c5",
     "5d7414a3f6ac32def7df73e8a2309d6cce02fce9799240d49751c010702953f7"),
    (16, 4, "3682b67e07a31824142524af845a050cf8f5bdf2d977b7503d93b4aaff57dc93",
     "f8c73be8344b1248feefde94bba5a82dff596a0112db8d0e20c3ad023d464ab8"),
]


@pytest.mark.parametrize("n, depth, snapshot, groups", SNAPSHOTS,
                         ids=[f"{n}-{snapshot}" for n, _, snapshot, _ in SNAPSHOTS])
def test_real_lattice_snapshot_is_unchanged(n, depth, snapshot, groups):
    # a changed snapshot means the real backend's nodes, forms or Witt table
    # changed; a changed grouping moves the token a sweep evaluates per group
    model = real_lattice(real_forms(n), depth=depth)
    assert _digest(serialize_model(lattice_to_data(model))) == snapshot
    assert _digest(json.dumps(model.token_groups())) == groups


def test_scaled_real_lattice_is_unchanged():
    # 5148 extensions: the full snapshot has 3M Witt cells and takes about
    # 25 s to write, so compare what fixes it instead -- the forms and every
    # node with its level, since a real Witt index reads only the level
    model = real_lattice(real_forms(32), depth=4)
    nodes = [
        [tok, model.extension(tok).parent, model.extension(tok).construction, model.level(tok)]
        for tok in model.extension_tokens()
    ]
    assert len(nodes) == 5148
    assert _digest(json.dumps([model.form_keys(), nodes])) == (
        "f619654ea4cd2167618278bce3a977cdfc76be492859f2af514996d13307aea9"
    )
    assert _digest(json.dumps(model.token_groups())) == (
        "1bce84bacc819d58278383b30d66abd6446c6a60fad803be18b4578cb5d3f44b"
    )


# -------------------------------------------------------- ingestion errors


def test_ingestion_rejects_structural_defects():
    good = declared_fixture()

    bad = parse_model(serialize_model(good))
    bad["forms"].append({"id": "(3,0)", "dim": 3})
    with pytest.raises(ModelError):
        declared_lattice_from_data(bad)

    bad = parse_model(serialize_model(good))
    bad["extensions"][0]["construction"] = "ff:(3,0)"  # no base left
    with pytest.raises(ModelError):
        declared_lattice_from_data(bad)

    bad = parse_model(serialize_model(good))
    bad["extensions"].append({"id": "loop", "parent": "loop", "construction": "ff:(3,0)"})
    with pytest.raises(ModelError):
        declared_lattice_from_data(bad)

    # a short table names its first gap in form-major, sorted-token order,
    # whatever the order of its entries
    cells = sorted((e["form"], e["extension"]) for e in good["witt"])
    for gaps in ([cells[-1]], [cells[-1], cells[3]]):
        bad = parse_model(serialize_model(good))
        bad["witt"] = [e for e in reversed(bad["witt"]) if (e["form"], e["extension"]) not in gaps]
        form, token = min(gaps)
        with pytest.raises(ModelError, match=f"^witt table misses {re.escape(form)} at {re.escape(token)}$"):
            declared_lattice_from_data(bad, check=False)

    bad = parse_model(serialize_model(good))
    for f in bad["forms"]:
        if f["id"] == "(3,0)":
            f["prime"] = "(3,0)"
    with pytest.raises(ModelError):
        declared_lattice_from_data(bad)


def _reference_declared_lattice_from_data(data: dict, check: bool = True) -> DeclaredLattice:
    """The loader as it was before witt was read in one pass, kept as the
    reference: it checked every section with check_json, placed the
    extensions, then read witt into a (form, token) table.  Only its last
    step is new: it files that table into the per-token rows that
    witt_index reads.
    """
    if not isinstance(data, dict):
        modelfile.check_nesting(data)
        raise ModelError(f"model must be a JSON object, not {type(data).__name__}")
    if not data.keys() <= _SCHEMA.keys():
        modelfile.check_nesting(data)  # a key outside the schema may hold any value
    try:
        forms, extensions, witt = (
            check_json(data.get(name, []), name, shape) for name, shape in _SCHEMA.items()
        )
    except ModelError:
        modelfile.check_nesting(data)  # a misfit may sit beside deeper nesting elsewhere
        raise
    model = DeclaredLattice()

    for item in forms:
        try:
            q = QuadraticForm.declared(item["id"], item["dim"])
        except ValueError as exc:  # an empty id or a dim below 1
            raise ModelError(str(exc)) from None
        if q.key in model._forms:
            raise ModelError(f"duplicate form id {q.key!r}")
        model.register_form(q)
    for item in forms:
        link = item.get("prime")
        if link is None:
            continue
        if link not in model._forms:
            raise ModelError(f"form {item['id']!r} links to unknown prime {link!r}")
        expected = model._forms[item["id"]].dim + 1
        if model._forms[link].dim != expected:
            raise ModelError(
                f"prime link {item['id']!r} -> {link!r} must raise dim by one"
            )
        model._prime_links[item["id"]] = link

    pending = {item["id"]: item for item in extensions}
    if len(pending) != len(extensions):
        raise ModelError("duplicate extension ids")
    parts: dict[str, tuple[str, ...]] = {}
    for token, item in pending.items():
        try:
            parts[token] = fields.parse_construction(item["construction"]).parts
        except ModelError as exc:
            raise ModelError(f"extension {token!r}: {exc}") from None
    # an extension is placed after its parent and its join constituents, in
    # the order of repeated passes over the pending ids in sorted order: its
    # pass is that of its latest reference, plus one if that reference sorts
    # after it.  Kahn's algorithm works the passes out in one walk; nothing
    # on a cycle through a reference is ever placed, and add_extension
    # refuses a reference that names no extension at all
    refs = {
        token: {ref for ref in (item.get("parent"), *parts[token]) if ref in pending}
        for token, item in pending.items()
    }
    waiting = {token: len(found) for token, found in refs.items()}
    users: dict[str, list[str]] = {token: [] for token in pending}
    for token, found in refs.items():
        for ref in found:
            users[ref].append(token)
    passes: dict[str, int] = {}
    ready = [token for token, n in waiting.items() if not n]
    for token in ready:  # grows as references are placed
        passes[token] = max((passes[ref] + (ref > token) for ref in refs[token]), default=0)
        for user in users[token]:
            waiting[user] -= 1
            if not waiting[user]:
                ready.append(user)
    for token in sorted(passes, key=lambda token: (passes[token], token)):
        item = pending[token]
        model.add_extension(Extension(token, item.get("parent"), item["construction"]))
    if len(passes) < len(pending):
        raise ModelError(f"parent graph has a cycle through {sorted(pending.keys() - passes)}")
    if model._base is None:
        raise ModelError("declared model has no base extension")

    known_forms, known_tokens, table = model._forms, model._extensions, {}
    for item in witt:
        fk, tok, value = item["form"], item["extension"], item["index"]
        if fk not in known_forms:
            raise ModelError(f"witt entry for unknown form {fk!r}")
        if tok not in known_tokens:
            raise ModelError(f"unknown extension {tok!r}")
        if value < 0:
            raise ModelError(f"negative Witt index for {fk} at {tok}")
        if (fk, tok) in table:
            raise ModelError(f"duplicate witt entry for {fk} at {tok}")
        table[(fk, tok)] = value
    # every entry is a distinct known (form, token), so the table is total
    # exactly when it has one entry per cell; otherwise name the first gap
    if len(table) != len(known_forms) * len(known_tokens):
        tokens = model.extension_tokens()
        for fk in model.form_keys():
            for tok in tokens:
                if (fk, tok) not in table:
                    raise ModelError(f"witt table misses {fk} at {tok}")
    for (fk, tok), value in table.items():
        model._witt.setdefault(tok, {})[fk] = value

    if check:
        report = model.validate()
        if not report.ok:
            raise ModelError("declared model rejected:\n" + report.render())
    return model


def _load_outcome(load, data, check):
    """The first ModelError text, or the snapshot of the loaded lattice with
    the type of each index; neither loader writes to data."""
    try:
        model = load(data, check=check)
    except ModelError as exc:
        return "refused", str(exc)
    snapshot = lattice_to_data(model)
    return "loaded", snapshot, [type(e["index"]) for e in snapshot["witt"]]


def _placed_under(monkeypatch, load, data):
    """The tokens that load places before it returns or raises."""
    placed = []
    add = DeclaredLattice.add_extension
    monkeypatch.setattr(DeclaredLattice, "add_extension",
                        lambda self, ext, level=None: placed.append(ext.token) or add(self, ext, level))
    try:
        load(data)
    except ModelError:
        pass
    monkeypatch.undo()
    return placed


def _witt_entry(data, rng):
    """A witt entry that is still an object."""
    return rng.choice([entry for entry in data["witt"] if type(entry) is dict])


def _witt_misfit(data, rng):
    entry = _witt_entry(data, rng)
    damage = rng.choice(["drop", None, True, 1.5, "s", [], {}, "entry"])
    if damage == "entry":
        data["witt"][data["witt"].index(entry)] = rng.choice([3, "x", [], None])
    elif damage == "drop":
        entry.pop(rng.choice(["form", "extension", "index"]), None)
    else:
        entry[rng.choice(["form", "extension", "index"])] = copy.deepcopy(damage)


def _witt_semantic(data, rng):
    entry = _witt_entry(data, rng)
    kind = rng.choice(["form", "extension", "negative", "duplicate", "gap", "value"])
    if kind == "value":  # fits the table, and may break an invariant family
        entry["index"] = rng.randint(0, 3)
    elif kind == "form":
        entry["form"] = "zz"
    elif kind == "extension":
        entry["extension"] = "nowhere"
    elif kind == "negative":
        entry["index"] = -1
    elif kind == "duplicate":
        data["witt"].insert(rng.randrange(len(data["witt"]) + 1), {**entry, "index": 1})
    else:
        data["witt"].remove(entry)


def _structure_fault(data, rng):
    kind = rng.choice(["form", "cycle", "parent", "extension", "construction", "base", "prime"])
    children = [e for e in data["extensions"] if e["construction"] != "base"]
    if kind == "form":
        data["forms"].append(dict(rng.choice(data["forms"])))
    elif kind == "cycle":
        rng.choice(children)["parent"] = rng.choice(children)["id"]
    elif kind == "parent":
        rng.choice(children)["parent"] = "zz"
    elif kind == "extension":
        data["extensions"].append(dict(rng.choice(children)))
    elif kind == "construction":
        rng.choice(children)["construction"] = "gff:x:y"
    elif kind == "base":
        data["extensions"][0]["construction"] = "ff:x"
    else:
        rng.choice(data["forms"])["prime"] = "zz"


def _section_fault(data, rng):
    kind = rng.choice(["no witt", "witt", "forms", "extensions"])
    if kind == "no witt":
        del data["witt"]
    elif kind == "witt":
        data["witt"] = rng.choice([{}, "x", 3, None, {"form": "c1"}])
    elif kind == "forms":
        rng.choice(data["forms"]).pop("dim", None)
    else:
        rng.choice(data["extensions"])["construction"] = 7


def _harmless_edit(data, rng):
    """An edit that loads as before: reordered entries, a key outside the
    shape or an int-subclass index."""
    kind = rng.choice(["shuffle", "note", "int"])
    if kind == "shuffle":
        rng.shuffle(data["witt"])
    elif kind == "note":  # nothing reads it
        _witt_entry(data, rng)["note"] = [["x"]]
    else:
        entry = _witt_entry(data, rng)
        entry["index"] = _Int(entry.get("index", 0))


_LOADER_EDITS = (_witt_misfit, _witt_semantic, _structure_fault, _section_fault, _harmless_edit)


def _error_family(outcome) -> str:
    if outcome[0] == "loaded":
        return "loaded"
    text = outcome[1]
    if re.match(r"(forms|extensions|witt)(\[| must)", text) or text == modelfile._TOO_DEEP:
        return "misfit"
    if text.startswith(("witt entry", "unknown extension", "negative", "duplicate witt")):
        return "bad entry"
    if text.startswith("witt table misses"):
        return "gap"
    if text.startswith("declared model rejected"):
        return "rejected"
    return "structure"


def test_the_one_pass_loader_matches_the_reference_on_damaged_models(monkeypatch):
    good = {"fixture": declared_fixture(), "twins": TWINS}
    deep = _nested(modelfile.MAX_NESTING + 100)

    def damaged(name, *edits):
        data = copy.deepcopy(good[name])
        for edit in edits:
            edit(data)
        return data

    def misfit(data):
        data["witt"][-1]["index"] = "1"

    def set_entry(i, **values):
        return lambda data: data["witt"][i].update(values)

    cases = {
        # a witt misfit beside a structural defect: the misfit comes first
        "misfit+duplicate form": damaged("fixture", misfit,
                                         lambda d: d["forms"].append(dict(d["forms"][0]))),
        "misfit+cycle": damaged("twins", misfit, lambda d: d["extensions"][1].update(parent="k(c1,c2)")),
        "misfit+unknown parent": damaged("twins", misfit, lambda d: d["extensions"][2].update(parent="zz")),
        # a bad entry before a misfit: the misfit comes first
        "unknown form, then misfit": damaged("twins", set_entry(2, form="zz"), set_entry(7, index=None)),
        "negative, then misfit": damaged("fixture", set_entry(0, index=-1), set_entry(5, extension=1)),
        "duplicate, then misfit": damaged(
            "twins", lambda d: d["witt"].insert(1, dict(d["witt"][0])), set_entry(9, form=[])),
        # a bad entry beside a structural defect: the structure comes first
        "unknown extension+cycle": damaged("twins", set_entry(3, extension="nowhere"),
                                           lambda d: d["extensions"][1].update(parent="k(c1,c2)")),
        # a key outside the shape, too deep, in one entry; and beside a bad entry
        "deep extra key": damaged("twins", set_entry(4, note=deep)),
        "deep extra key after a bad entry": damaged("twins", set_entry(0, index=-1), set_entry(4, note=deep)),
        "bool index": damaged("fixture", set_entry(3, index=True)),
        "int subclass index": damaged("twins", *(set_entry(i, index=_Int(TWINS["witt"][i]["index"]))
                                                   for i in (0, 3, 6))),
        "no witt": damaged("twins", lambda d: d.pop("witt")),
        "witt not a list": damaged("twins", lambda d: d.update(witt={"form": "c1"})),
        "witt entry not an object": damaged("twins", lambda d: d["witt"].insert(2, ["c1", "k", 0])),
    }
    want = {
        "misfit+duplicate form": "witt[",
        "misfit+cycle": "witt[",
        "misfit+unknown parent": "witt[",
        "unknown form, then misfit": "witt[7].index missing",
        "negative, then misfit": "witt[5].extension must be a string",
        "duplicate, then misfit": "witt[9].form must be a string",
        "unknown extension+cycle": "parent graph has a cycle",
        "deep extra key": modelfile._TOO_DEEP,
        "deep extra key after a bad entry": modelfile._TOO_DEEP,
        "bool index": "witt[3].index must be an integer",
        "no witt": "witt table misses",
        "witt not a list": "witt must be a list",
        "witt entry not an object": "witt[2] must be an object",
    }
    for name, data in cases.items():
        for check in (True, False):
            got = _load_outcome(declared_lattice_from_data, data, check)
            assert got == _load_outcome(_reference_declared_lattice_from_data, data, check), name
        assert got[0] == ("loaded" if name == "int subclass index" else "refused"), (name, got)
        if name in want:
            assert got[1].startswith(want[name]), (name, got)
        if got[0] == "refused" and got[1].startswith(("witt[", "witt must", modelfile._TOO_DEEP)):
            assert _placed_under(monkeypatch, declared_lattice_from_data, data) == [], name
    # the int subclass passes through to the snapshot, as the reference keeps it
    assert _Int in _load_outcome(declared_lattice_from_data, cases["int subclass index"], True)[2]

    # seeded models with two or three edits, most of them faults of any kind
    rng = random.Random(23)
    seen = dict.fromkeys(["misfit", "bad entry", "structure", "gap", "rejected", "loaded"], 0)
    for _ in range(600):
        data = copy.deepcopy(good[rng.choice(sorted(good))])
        edits = rng.choices(_LOADER_EDITS, weights=(1, 1, 1, 1, 2), k=rng.randint(2, 3))
        for edit in edits:
            if isinstance(data.get("witt"), list) and dict in map(type, data["witt"]):
                edit(data, rng)
        check = rng.random() < 0.5
        got = _load_outcome(declared_lattice_from_data, data, check)
        assert got == _load_outcome(_reference_declared_lattice_from_data, data, check), edits
        seen[_error_family(got)] += 1
    assert min(seen.values()) >= 3, seen  # every outcome occurs


def test_validate_falls_back_to_the_cell_fill_where_a_row_is_incomplete():
    model = declared_lattice_from_data(copy.deepcopy(TWINS), check=False)
    del model._witt["k(c1)"]["c2"]  # a row that misses one form
    del model._witt["k(G)"]  # a token with no row
    model.register_form(QuadraticForm.declared("late", 2))  # a form no row holds
    got = [(v.family, v.form, v.extension, v.detail) for v in model.validate().violations]
    assert got == _reference_violations(model)
    # form-major: every missing cell of one form before the next form's
    assert [(form, token) for _, form, token, _ in got] == [
        ("c1", "k(G)"), ("c1p", "k(G)"), ("c2", "k(G)"), ("c2", "k(c1)"), ("c2p", "k(G)"),
        ("late", "k"), ("late", "k(G)"), ("late", "k(c1)"), ("late", "k(c1,c2)"), ("late", "k(c2)"),
    ]
    assert {family for family, *_ in got} == {"table"}
    # the refusals of witt_index keep their texts
    for key, token in (("c2", "k(c1)"), ("c1", "k(G)"), ("late", "k")):
        with pytest.raises(ModelError, match=f"^no declared Witt index for form {key} at {re.escape(token)}$"):
            model.witt_index(model.form(key), token)
    with pytest.raises(ModelError, match="^unknown extension 'nowhere'$"):
        model.witt_index(model.form("c1"), "nowhere")
    with pytest.raises(ModelError, match=r"^real form \(1,1\) is not in the declared table$"):
        model.witt_index(real(1, 1), "k")
    assert model.witt_index(model.form("c1"), "k(c1)") == 1


def test_a_complete_model_calls_witt_index_only_for_self_isotropy(monkeypatch):
    calls = []
    witt_index = DeclaredLattice.witt_index
    monkeypatch.setattr(DeclaredLattice, "witt_index",
                        lambda self, q, token: calls.append((q.key, token)) or witt_index(self, q, token))
    for source in (TWINS, declared_fixture(), lattice_to_data(real_lattice(real_forms(6), 2))):
        calls.clear()
        model = declared_lattice_from_data(copy.deepcopy(source))  # loads and validates
        own = [(fields.parse_construction(ext.construction), token)
               for token, ext in model._extensions.items()]
        want = [(c.form, token) for c, token in own if c.kind in ("ff", "gff")]
        assert want and sorted(calls) == sorted(want)


_TYPE_NAMES = {str: "a string", int: "an integer"}


def _reference_check_json(value, path, shape):
    """The recursive checker that builds every path, kept as the reference."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise ModelError(f"{path} must be a list")
        for i, item in enumerate(value):
            _reference_check_json(item, f"{path}[{i}]", shape[0])
    elif isinstance(shape, tuple):
        if not isinstance(value, dict):
            raise ModelError(f"{path} must be an object")
        for key, field_shape, required in shape:
            if value.get(key) is not None:
                _reference_check_json(value[key], f"{path}.{key}", field_shape)
            elif required:
                raise ModelError(f"{path}.{key} missing")
    elif not isinstance(value, shape) or isinstance(value, bool):
        raise ModelError(f"{path} must be {_TYPE_NAMES[shape]}")
    return value


_DROP = object()
# what a damaged place may hold instead: nothing, or a value of each JSON kind
_DAMAGE = [_DROP, None, True, False, 1.5, -2, "3", "s", [], [{}], [1, "a"], {}, {"id": "x"}]

_DECOMPOSITION = {
    "tates": [{"x": 0, "y": 1}, {"x": 2, "y": 0}],
    "summands": [{"class": {"quadric": "a", "planes": 0}, "shift": 1, "kind": "declared"}],
}


def _places(value, prefix=()):
    """Every dict key and list index inside a JSON value, as paths from the top."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, item in items:
        out.append(prefix + (key,))
        out.extend(_places(item, prefix + (key,)))
    return out


def _outcome(check, value, path, shape):
    try:
        check(value, path, shape)
    except ModelError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_check_json_matches_the_recursive_reference(data):
    subject = data.draw(st.sampled_from(["model", "decomposition"]))
    value = declared_fixture() if subject == "model" else copy.deepcopy(_DECOMPOSITION)
    place = data.draw(st.none() | st.sampled_from(_places(value)))
    if place is not None:
        *outer, last = place
        holder = value
        for key in outer:
            holder = holder[key]
        damage = data.draw(st.sampled_from(_DAMAGE))
        if damage is _DROP:
            del holder[last]
        else:
            holder[last] = copy.deepcopy(damage)
    if subject == "model":
        checks = [(value.get(name, []), name, shape) for name, shape in _SCHEMA.items()]
    else:
        checks = [(value, 'decomps["a"]', DECOMPOSITION_SHAPE)]
    got = [_outcome(check_json, *args) for args in checks]
    assert got == [_outcome(_reference_check_json, *args) for args in checks]
    if place is None:
        assert got == [None] * len(checks)


# check_json's _misfit before the one-pass rewrite, kept verbatim as the
# reference for its error texts
def _misfit(value, shape) -> tuple[str, str] | None:
    """(path suffix, complaint) for the first value that does not fit shape, or None."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            return "", "must be a list"
        for i, item in enumerate(value):
            problem = _misfit(item, shape[0])
            if problem is not None:
                return f"[{i}]{problem[0]}", problem[1]
    elif isinstance(shape, tuple):
        if not isinstance(value, dict):
            return "", "must be an object"
        for key, field_shape, required in shape:
            item = value.get(key)
            if item is None:
                if required:
                    return f".{key}", "missing"
            elif field_shape is str or field_shape is int:
                # a leaf, checked here to spare a call per field
                if not isinstance(item, field_shape) or isinstance(item, bool):
                    return f".{key}", f"must be {_TYPE_NAMES[field_shape]}"
            else:
                problem = _misfit(item, field_shape)
                if problem is not None:
                    return f".{key}{problem[0]}", problem[1]
    elif not isinstance(value, shape) or isinstance(value, bool):
        return "", f"must be {_TYPE_NAMES[shape]}"
    return None


def _misfit_check_json(value, path, shape):
    problem = _misfit(value, shape)
    if problem is not None:
        raise ModelError(f"{path}{problem[0]} {problem[1]}")
    return value


class _Int(int):
    pass


class _Str(str):
    pass


def test_check_json_gives_the_old_errors_for_each_damaged_field():
    # every field, entry and section, dropped or replaced by null, a value of
    # the wrong type, true, a non-object entry or a non-list section
    damages = [_DROP, None, True, 1, "s", {}, [], [1]]
    subjects = [(declared_fixture(), list(_SCHEMA.items())),
                ({"a": _DECOMPOSITION}, [("a", DECOMPOSITION_SHAPE)])]
    checked = 0
    for top, sections in subjects:
        for place in _places(top):
            for damage in damages:
                value = copy.deepcopy(top)
                *outer, last = place
                holder = value
                for key in outer:
                    holder = holder[key]
                if damage is _DROP:
                    del holder[last]
                else:
                    holder[last] = copy.deepcopy(damage)
                for name, shape in sections:
                    args = (value.get(name, []), name, shape)
                    got = _outcome(check_json, *args)
                    assert got == _outcome(_misfit_check_json, *args)
                    checked += got is not None
    assert checked > 500


def test_check_json_passes_valid_input_unchanged():
    model = declared_fixture()
    model["forms"][0]["dim"] = _Int(model["forms"][0]["dim"])
    model["witt"][-1]["index"] = _Int(2)
    model["extensions"][0]["id"] = _Str(model["extensions"][0]["id"])
    model["forms"].append(json.loads('{"id": "x", "dim": 3, "prime": null, "other": [1]}'))
    for top, sections in [(model, list(_SCHEMA.items())),
                          ({"a": _DECOMPOSITION, "b": {}, "c": {"tates": None}},
                           [(k, DECOMPOSITION_SHAPE) for k in "abc"])]:
        for name, shape in sections:
            before = copy.deepcopy(top[name])
            assert check_json(top[name], name, shape) is top[name]
            assert _misfit(top[name], shape) is None
            assert top[name] == before


def _serializer_inputs():
    for n in range(1, 11):
        for depth in range(4):
            yield lattice_to_data(real_lattice(real_forms(n), depth=depth))
    corpus = Path(__file__).resolve().parent / "cli_corpus"
    for fixture in ("models", "decomps"):
        yield from json.loads((corpus / f"{fixture}.json").read_text(encoding="utf-8")).values()
    # one corrupted Witt index per invariant family
    for form, ext, value in [("(3,0)", "base/(3,0)/(2,0)", 0), ("(2,1)", "base", 2),
                             ("(1,3)", "base", 2), ("(3,0)", "base/(3,0)", 0)]:
        data = declared_fixture()
        _set_index(data, form, ext, value)
        yield data
    awkward = ["é", "ü\u2603", 'a"b', "a\\b", "a\nb", "},\n      {", "\u0000\t", ""]
    yield {
        "forms": [{"id": key, "dim": 3} for key in awkward],
        "extensions": [{"id": key, "construction": "base", key: key} for key in awkward],
        "é \"\\\n": [{"x": 1}],
    }
    yield from [
        {}, {"forms": []}, {"forms": [], "witt": []}, {"forms": [{}]}, {"forms": [{"id": "a"}, {}]},
        {"forms": [{"id": [1, {"a": None}]}]}, {"forms": [{"id": {"b": 2, "a": 1}}]},
        {"forms": [{"a": True, "b": False, "c": None, "d": 1.5, "e": -0.0, "f": 1e300}]},
        {"forms": [{"a": float("nan"), "b": float("inf")}]}, {"forms": [{"a": _Int(3)}]},
        {"forms": [{2: "x", 1: "y"}, {2.5: "y", 0.5: "z"}]}, {"forms": {"id": "a"}}, {"forms": "x"},
        {"forms": [[{"id": "a"}]]}, {"forms": [{"id": "a"}, 1]}, {"b": [], "a": [{"z": 0}]},
        [], [{"id": "a"}], "text", 3, None, True,
    ]


def test_serialize_model_is_json_dumps_with_sorted_keys_and_indent_two():
    for data in _serializer_inputs():
        assert serialize_model(data) == json.dumps(data, sort_keys=True, indent=2) + "\n", data


def test_deeply_nested_json_is_a_model_error():
    for depth in (900, 1100):
        text = '{"forms": ' + "[" * depth + "]" * depth + "}"
        with pytest.raises(ModelError, match=r"^JSON nests deeper than the parser allows$"):
            declared_lattice_from_data(parse_model(text))
    with pytest.raises(ModelError, match="deeper than the parser allows"):
        parse_model("[" * 100000 + "]" * 100000)


def _nested(depth):
    """Arrays nested depth deep, as parsed JSON, built without recursion."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_nesting_past_the_bound_is_refused_wherever_it_hides():
    bound = modelfile.MAX_NESTING
    base = {"id": "k", "construction": "base"}
    form = {"id": "a", "dim": 2, "prime": "b"}
    forms = [form, {"id": "b", "dim": 3}]

    def models(junk):
        """Models that hold junk one level below the walked value: the whole
        model, or an entry with a key outside its shape."""
        return [
            [junk],  # refused for its type
            {"forms": junk},  # a misfit
            {"forms": forms, "extensions": [base], "witt": [], "notes": junk},
            # under an entry key outside the shape, beside all of its fields
            # and beside all but its optional one
            {"forms": [{**form, "notes": junk}, forms[1]], "extensions": [base]},
            {"extensions": [{**base, "notes": junk}]},
            # a shallow misfit in forms beside a deep witt
            {"forms": [3], "witt": junk},
        ]

    # between the bound and the smallest parser limit, every version parses
    # the text and the loader refuses it
    for depth in (bound, 600, 900):
        for data in models(_nested(depth)):
            parsed = parse_model(json.dumps(data))
            with pytest.raises(ModelError, match=r"^JSON nests deeper than the parser allows$"):
                declared_lattice_from_data(parsed)
    # one level shallower, no model is refused for its nesting
    for data in models(_nested(bound - 1)):
        try:
            declared_lattice_from_data(data)
        except ModelError as exc:
            assert "nests deeper" not in str(exc)


def test_declared_extensions_must_preexist():
    model = declared_lattice_from_data(declared_fixture())
    q30 = model.form("(3,0)")
    token = model.extend_by_function_field("base", ProjectiveQuadric(q30))
    assert model.extension(token).construction == "ff:(3,0)"
    with pytest.raises(ModelError):
        model.extend_by_function_field(token, ProjectiveQuadric(q30))


def test_declared_lookup_returns_the_smallest_matching_token():
    model = DeclaredLattice()
    c1 = QuadraticForm.declared("c1", 3)
    model.register_form(c1)
    for token, parent, construction in [
        ("k", None, "base"), ("m", "k", "ff:c2"), ("z", "k", "ff:c1"),
        ("y", "m", "ff:c1"), ("b", "m", "ff:c1"), ("a", "k", "ff:c1"),
    ]:
        model.add_extension(Extension(token, parent, construction))
    assert model.extend_by_function_field("k", ProjectiveQuadric(c1)) == "a"
    assert model.extend_by_function_field("m", ProjectiveQuadric(c1)) == "b"
    # no ff:c1 over z itself: the Grassmannian lookup falls back to any parent
    assert model.extend_by_grassmannian("z", Grassmannian(ProjectiveQuadric(c1), 0)) == "a"
    with pytest.raises(ModelError):
        model.extend_by_function_field("z", ProjectiveQuadric(c1))


def test_declared_join_is_below_its_constituents():
    model = DeclaredLattice()
    for token, parent, construction in [
        ("k", None, "base"), ("a", "k", "ff:c1"), ("b", "k", "ff:c2"),
        ("j", "a", "join:a|b"),
    ]:
        model.add_extension(Extension(token, parent, construction))
    assert model.ancestors("j") == {"k", "a", "b"}


def test_add_extension_refuses_unknown_join_constituents():
    model = DeclaredLattice()
    model.add_extension(Extension("k", None, "base"))
    with pytest.raises(ModelError, match="join 'A' references unknown 'A'"):
        model.add_extension(Extension("A", "k", "join:A|k"))
    with pytest.raises(ModelError, match="join 'B' references unknown 'zz'"):
        model.add_extension(Extension("B", "k", "join:k|zz"))
    with pytest.raises(ModelError, match="unknown parent extension 'zz'"):
        model.add_extension(Extension("C", "zz", "ff:c1"))
    assert model.extension_tokens() == ["k"]
    with pytest.raises(ModelError, match="unknown extension 'A'"):
        model.ancestors("A")


def test_parentless_extension_is_refused():
    # with nothing below it, x escaped the monotonicity check against k
    data = {
        "forms": [{"id": "b", "dim": 4}],
        "extensions": [{"id": "k", "construction": "base"},
                       {"id": "x", "construction": "ff:a"}],
        "witt": [{"form": "b", "extension": "k", "index": 2},
                 {"form": "b", "extension": "x", "index": 0}],
    }
    message = "extension 'x' has neither a parent nor join constituents"
    with pytest.raises(ModelError, match=message):
        declared_lattice_from_data(data)
    data["extensions"][1]["parent"] = "k"
    drop = r"\[monotonicity\] form b at x: i_W drops from 2 at k to 0"
    with pytest.raises(ModelError, match=drop):
        declared_lattice_from_data(data)

    model = DeclaredLattice()
    model.add_extension(Extension("k", None, "base"))
    with pytest.raises(ModelError, match=message):
        model.add_extension(Extension("x", None, "ff:a"))
    # join constituents alone place a node below them
    assert model.add_extension(Extension("j", None, "join:k")) == "j"
    assert model.ancestors("j") == {"k"}


@pytest.mark.parametrize("form, message", [
    ({"id": "a", "dim": 0}, "declared form 'a' needs dim >= 1"),
    ({"id": "", "dim": 3}, "declared form needs a nonempty id"),
])
def test_declared_loader_refuses_a_bad_form_with_a_model_error(form, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        declared_lattice_from_data({"forms": [form]})


def _reference_extension_order(extensions) -> list[str]:
    """Places extensions as repeated passes over the sorted pending ids, each
    placing those whose parent and join constituents are placed: the order
    the loader keeps, and its first error."""
    model = DeclaredLattice()
    pending = {item["id"]: item for item in extensions}
    parts = {
        token: fields.parse_construction(item["construction"]).parts
        for token, item in pending.items()
    }
    while pending:
        progressed = False
        for token in sorted(pending):
            item = pending[token]
            parent = item.get("parent")
            if parent in pending or any(part in pending for part in parts[token]):
                continue
            model.add_extension(Extension(token, parent, item["construction"]))
            del pending[token]
            progressed = True
        if not progressed:
            raise ModelError(f"parent graph has a cycle through {sorted(pending)}")
    if model._base is None:
        raise ModelError("declared model has no base extension")
    return list(model._extensions)


def _random_extensions(rng) -> list[dict]:
    """Extensions over shuffled ids, mostly each below earlier ones; some
    join, reference themselves, later ids or missing ids, lack a parent or
    declare a second base."""
    names = rng.sample([f"x{i:02d}" for i in range(40)], rng.randint(1, 14))
    extensions = [{"id": names[0], "construction": "base"}]
    for i, token in enumerate(names[1:], 1):
        fault = rng.random()
        if fault < 0.03:
            extensions.append({"id": token, "construction": "base"})
            continue
        pool = names[:i]
        if fault < 0.1:  # itself or a later id too, so maybe a cycle
            pool = names
        elif fault < 0.13:  # an id that names no extension
            pool = names[:i] + ["gone"]
        item = {"id": token, "construction": "ff:c1", "parent": rng.choice(pool)}
        if rng.random() < 0.3:
            joined = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
            item["construction"] = "join:" + "|".join(joined)
            if rng.random() < 0.3:
                del item["parent"]
        if fault > 0.98:
            item.pop("parent", None)
        extensions.append(item)
    rng.shuffle(extensions)
    return extensions


def _placement_outcome(load, extensions):
    try:
        return "placed", load(extensions)
    except ModelError as exc:
        return "refused", str(exc)


def test_declared_extensions_are_placed_in_the_order_of_repeated_passes():
    def load(extensions):
        model = declared_lattice_from_data({"extensions": extensions}, check=False)
        return list(model._extensions)

    rng = random.Random(20)
    seen = {"placed": 0, "refused": 0}
    for _ in range(1500):
        extensions = _random_extensions(rng)
        want = _placement_outcome(_reference_extension_order, extensions)
        assert _placement_outcome(load, extensions) == want, extensions
        seen[want[0]] += 1
    assert min(seen.values()) > 300, seen


def test_a_deepest_first_chain_loads_in_linear_time():
    names = [f"e{i:05d}" for i in range(20000, 0, -1)]
    data = {
        "forms": [{"id": "c1", "dim": 3}],
        "extensions": [{"id": "k", "construction": "base"}] + [
            {"id": tok, "construction": "ff:c1", "parent": parent}
            for tok, parent in zip(names, ["k", *names[:-1]])
        ],
        "witt": [{"form": "c1", "extension": tok, "index": int(tok != "k")}
                 for tok in ["k", *names]],
    }
    start = time.perf_counter()
    model = declared_lattice_from_data(data, check=False)
    elapsed = time.perf_counter() - start
    assert list(model._extensions) == ["k", *names]
    assert elapsed < 2.0, f"{elapsed:.2f} s for a 20,000-deep chain"


def test_prime_tracks_the_declared_link():
    model = declared_lattice_from_data(declared_fixture())
    with pytest.raises(ModelError):
        model.prime_of(model.form("(1,3)"))  # no link registered for the prime


def test_concurrent_oracle_reads_match_serial_results():
    # frozen lattice: concurrent (form, extension) evaluation through every
    # memo must be safe, and the memos behaviorally invisible; on the declared
    # snapshot the tokens of one Witt row share each memo entry
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def read(lattice, q, token):
        # the oracle memos, the kept token order and the group map
        return (_memoized_answers(lattice, q, token), lattice.extension_tokens(),
                lattice.group_of[token])

    forms = [real(p, n - p) for n in range(1, 9) for p in range(n + 1)]

    def real_backend():
        return real_lattice(forms, depth=2)

    def declared_backend():  # unchecked, so nothing sorts its tokens
        return declared_lattice_from_data(lattice_to_data(real_backend()), check=False)

    for build in (real_backend, declared_backend):
        model = build()
        keyed = [model.form(q.key) for q in forms]
        jobs = [
            (q, token) for q in keyed for token in model.extension_tokens()
        ]
        serial = [read(model, q, t) for q, t in jobs]

        fresh = build()
        assert fresh._token_order is None  # the readers sort the tokens themselves
        assert len(fresh.token_groups()) < len(model.extension_tokens())
        twist_readoff.cache_clear()  # the concurrent readers fill the table afresh
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(
                    pool.map(lambda job: read(fresh, *job), jobs, timeout=60)
                )
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial, build.__name__
        # both routes agree at every (form, token)
        assert all(answer[1] == answer[4] for answer, _, _ in concurrent)


# ------------------------------------------------- group map and token order


def test_the_real_group_map_refuses_an_unknown_token_in_every_oracle():
    model = real_lattice([real(3, 1)], depth=1)
    q = model.form("(3,1)")
    reads = {
        "level": lambda: model.level("x"),
        "witt_index": lambda: model.witt_index(q, "x"),
        "phi_affine": lambda: phi_affine(q, "x", model),
        "phi_det": lambda: phi_det(ProjectiveQuadric(q), "x", model),
        "active_index": lambda: active_index(build_tower(q), "x", model),
    }
    for name, read in reads.items():
        with pytest.raises(ModelError) as exc:
            read()
        assert str(exc.value) == "unknown extension 'x'", name
    assert "x" not in model.group_of


def test_the_group_map_refuses_an_unknown_token_in_every_layer_on_both_backends():
    model = declared_lattice_from_data(lattice_to_data(real_lattice([real(2, 1)], depth=1)))
    with pytest.raises(ModelError) as exc:
        model.group_of["nowhere"]
    assert str(exc.value) == "unknown extension 'nowhere'"
    assert "nowhere" not in model.group_of
    source = real_lattice(real_forms(8), depth=2)
    twins, snapshot = (declared_lattice_from_data(copy.deepcopy(data))
                       for data in (TWINS, lattice_to_data(source)))
    # tokens share a group exactly when their Witt rows are equal
    for lattice in (model, twins, snapshot):
        for s, t in itertools.product(lattice.extension_tokens(), repeat=2):
            assert (lattice.group_of[s] == lattice.group_of[t]) == (lattice._witt[s] == lattice._witt[t])
    assert len(twins.extension_tokens()) == 5
    assert sorted(map(sorted, twins.token_groups())) == [
        ["k"], ["k(G)"], ["k(c1)", "k(c1,c2)", "k(c2)"]]
    # the snapshot has its real lattice's groups, one per level
    assert len(snapshot.extension_tokens()) == 30
    assert len(snapshot.token_groups()) == 5
    assert sorted(map(sorted, snapshot.token_groups())) == sorted(map(sorted, source.token_groups()))
    # a hand-built lattice, with no table, keeps one group per token
    hand = DeclaredLattice()
    hand.add_extension(Extension("k", None, "base"))
    hand.add_extension(Extension("k(a)", "k", "ff:a"))
    hand.add_extension(Extension("k(b)", "k", "ff:a"))
    assert hand.token_groups() == [["k"], ["k(a)"], ["k(b)"]]
    assert all(hand.group_of[t] == t for t in hand.extension_tokens())

    # every layer that reads a group refuses an unknown token before anything
    # else, on both backends, also for a declared form with no prime link
    pair = declared_lattice_from_data(
        lattice_to_data(real_lattice([real(3, 0), real(2, 1)], depth=2)))
    unlinked = pair.form("(1,3)")
    with pytest.raises(ModelError, match="^declared form \\(1,3\\) has no prime link$"):
        pair.prime_of(unlinked)
    lone = real_lattice([real(2, 1)], depth=1)
    cases = [(twins, twins.form("c1"), QuadraticForm.declared("point", 1)),
             (pair, pair.form("(2,1)"), QuadraticForm.declared("point", 1)),
             (pair, unlinked, QuadraticForm.declared("point", 1)),
             (lone, lone.form("(2,1)"), real(1, 0))]
    for lattice, q, point in cases:
        # a form with no prime link has no tower; the group is read before any slot
        tower = build_tower(q, lattice) if q is not unlinked else ProjectorTower(q, ())
        reads = {
            "phi_affine": lambda: phi_affine(q, "nowhere", lattice),
            "phi_det": lambda: phi_det(ProjectiveQuadric(q), "nowhere", lattice),
            "phi_det of the empty quadric": lambda: phi_det(ProjectiveQuadric(point), "nowhere", lattice),
            "active_index": lambda: active_index(tower, "nowhere", lattice),
            "value_at": lambda: generator_e(q, lattice).value_at("nowhere"),
        }
        for name, read in reads.items():
            with pytest.raises(ModelError) as exc:
                read()
            assert str(exc.value) == "unknown extension 'nowhere'", (q.key, name)


def test_add_extension_refuses_a_second_base_and_a_base_with_a_parent():
    for lattice in (DeclaredLattice(), RealLattice()):
        lattice.add_extension(Extension("k", None, "base"), 0)
        with pytest.raises(ModelError) as exc:
            lattice.add_extension(Extension("k2", "k", "base"), 0)
        assert str(exc.value) == "lattice already has a base extension"
    for lattice in (DeclaredLattice(), RealLattice()):
        with pytest.raises(ModelError) as exc:
            lattice.add_extension(Extension("k", "p", "base"), 0)
        assert str(exc.value) == "base extension cannot have a parent"
        assert lattice.extension_tokens() == [] and lattice._base is None


def test_a_copied_lattice_grows_its_own_group_map():
    # a bound method of the map, kept on the lattice, would still read the
    # original's dict after copy.deepcopy
    model = real_lattice(real_forms(4), depth=1)
    copied = copy.deepcopy(model)
    tower = Grassmannian(quadric(0, 8), 3)
    copied.extend_by_grassmannian(copied.base, tower)
    added = [t for t in copied._extensions if t not in model.group_of]
    assert added
    grown = real_lattice(real_forms(4), depth=1)
    grown.extend_by_grassmannian(grown.base, tower)
    deep = real(6, 0)
    for token in added:
        assert copied.level(token) == grown.level(token)
        assert copied.witt_index(deep, token) == grown.witt_index(deep, token)
        assert phi_affine(deep, token, copied) == phi_affine(deep, token, grown)
        for read in (model.level, lambda t: model.witt_index(deep, t),
                     lambda t: phi_affine(deep, t, model)):
            with pytest.raises(ModelError) as exc:
                read(token)
            assert str(exc.value) == f"unknown extension {token!r}"
    assert model.extension_tokens() == sorted(model._extensions)
    assert copied.extension_tokens() == sorted(copied._extensions)


def test_the_kept_token_order_follows_every_kind_of_growth():
    def check(model):
        assert model.extension_tokens() == sorted(model._extensions)

    model = real_lattice(real_forms(5), depth=1)
    check(model)
    check(model)  # from the kept order
    model.extend_by_function_field(model.base, quadric(7, 0))
    check(model)
    model.extend_by_grassmannian(model.base, Grassmannian(quadric(9, 0), 2))
    check(model)
    model.extend_by_grassmannian(model.base, Grassmannian(quadric(0, 12), 5))
    check(model)
    model.separate([real(0, 20)])
    assert model.level("base/(17,0)") == 16
    check(model)
    model.register_form(real(11, 0))  # a new form adds no token
    check(model)
    declared = declared_lattice_from_data(lattice_to_data(model))
    check(declared)
    assert declared.extension_tokens() == model.extension_tokens()


def test_the_token_list_is_the_callers_to_change():
    model = real_lattice(real_forms(4), depth=1)
    tokens = model.extension_tokens()
    expected = list(tokens)
    tokens.reverse()
    tokens.append("x")
    assert model.extension_tokens() == expected
    assert model.extension_tokens() is not model.extension_tokens()
