import json

import pytest
from hypothesis import given, settings, strategies as st

from quadpic import (
    ModelError,
    ProjectiveQuadric,
    QuadraticForm,
    TateTwist,
    declared_lattice_from_data,
    decompose_real,
    lattice_to_data,
    real_lattice,
    registered_decomposition,
    t_equivalent,
)
from quadpic.acceptance import real_forms
from quadpic.cli import main
from quadpic.decomp import declare_decompositions, parse_rost_kind
from summand_reference import phi_ratio_summand, tate_counts

real = QuadraticForm.real
signatures = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda pm: pm[0] + pm[1] >= 2
)


def blocks(dec):
    return [(s.kind, s.shift) for s in dec.summands]


def registered(model, form_id):
    """The decomposition registered for the quadric of the model's form."""
    return registered_decomposition(ProjectiveQuadric(model.form(form_id)), model)


def test_pfister_quadrics_are_rost_stacks():
    model = real_lattice([], depth=0)
    for r in (1, 2, 3, 4):
        dec = decompose_real(real(2**r, 0), model)
        assert blocks(dec) == [(f"rost:{r}", i) for i in range(2 ** (r - 1))]
        assert not dec.tates


def test_anisotropic_conic_is_a_single_rost_block():
    model = real_lattice([], depth=0)
    dec = decompose_real(real(3, 0), model)
    assert blocks(dec) == [("rost:2", 0)]


def test_split_zero_dimensional_quadric_is_two_unit_tates():
    model = real_lattice([], depth=0)
    dec = decompose_real(real(1, 1), model)
    assert not dec.summands
    assert list(dec.tates) == [TateTwist(0, 0), TateTwist(0, 0)]


def test_excellent_recursion_examples():
    model = real_lattice([], depth=0)
    assert blocks(decompose_real(real(5, 0), model)) == [("rost:2", 1), ("rost:3", 0)]
    assert blocks(decompose_real(real(6, 0), model)) == [
        ("rost:1", 2), ("rost:3", 0), ("rost:3", 1),
    ]
    # one stripped hyperbolic pair shifts the anisotropic blocks by one
    dec = decompose_real(real(7, 1), model)
    assert blocks(dec) == [("rost:1", 3), ("rost:3", 1), ("rost:3", 2)]
    assert list(dec.tates) == [TateTwist(0, 0), TateTwist(6, 12)]


def test_sign_flip_gives_the_same_quadric_decomposition():
    model = real_lattice([], depth=0)
    assert decompose_real(real(0, 3), model) is decompose_real(real(3, 0), model)


def test_decompose_needs_dim_two():
    model = real_lattice([], depth=0)
    with pytest.raises(ModelError):
        decompose_real(real(1, 0), model)


@given(signatures)
@settings(deadline=None, max_examples=60)
def test_rank_bookkeeping(pm):
    model = real_lattice([], depth=0)
    q = real(*pm)
    dec = decompose_real(q, model)
    assert dec.rank() == (q.dim if q.dim % 2 == 0 else q.dim - 1)


@given(signatures, st.lists(signatures, max_size=2))
@settings(deadline=None, max_examples=25)
def test_witt_consistency(pm, others):
    q = real(*pm)
    model = real_lattice([q] + [real(*o) for o in others], depth=3)
    dec = decompose_real(q, model)
    stripped = model.witt_index(q, model.base)
    for token in model.extension_tokens():
        lower = sum(len(tate_counts(s, token, model)[1]) for s in dec.summands)
        assert model.witt_index(q, token) == stripped + lower


def test_witt_consistency_exhaustive_dim16_depth3():
    forms = [real(p, n - p) for n in range(2, 17) for p in range(n + 1)]
    model = real_lattice(forms, depth=3)
    for q in forms:
        dec = decompose_real(q, model)
        stripped = model.witt_index(q, model.base)
        for token in model.extension_tokens():
            lower = sum(len(tate_counts(s, token, model)[1]) for s in dec.summands)
            assert model.witt_index(q, token) == stripped + lower


def test_tate_counts_examples():
    model = real_lattice([], depth=0)
    dec = decompose_real(real(4, 0), model)
    first = dec.summands[0]
    assert tate_counts(first, model.base, model) == ([], [])
    level1 = model.extend_by_function_field(model.base, ProjectiveQuadric(real(2, 0)))
    assert tate_counts(first, level1, model) == ([1], [0])
    from quadpic.decomp import Summand

    shifted = Summand(first.cls, 3, first.kind)
    assert tate_counts(shifted, level1, model) == ([4], [3])


@given(signatures)
@settings(deadline=None, max_examples=60)
def test_closure_tate_spectrum_matches_the_split_quadric(pm):
    # over the closure, a dim-m quadric has cohomology in degrees 0..m with
    # the middle degree doubled when m is even; the decomposition's Tate
    # summands plus each rost:r block at {shift, shift + 2^(r-1) - 1} must
    # reproduce exactly that multiset
    from collections import Counter

    model = real_lattice([], depth=0)
    q = real(*pm)
    dec = decompose_real(q, model)
    m = q.dim - 2
    spectrum = Counter(t.x for t in dec.tates)
    for s in dec.summands:
        r = parse_rost_kind(s.kind)
        spectrum[s.shift] += 1
        spectrum[s.shift + 2 ** (r - 1) - 1] += 1
    expected = Counter(range(m + 1))
    if m % 2 == 0:
        expected[m // 2] += 1
    assert spectrum == expected


@given(signatures, st.lists(signatures, max_size=2))
@settings(deadline=None, max_examples=25)
def test_det_twist_splits_into_summand_ratios(pm, others):
    # phi_det(Q, E) - phi_det(Q, base) must equal the sum of the twist
    # ratios of the summands of M(Q): the two computations share nothing
    # but the Witt oracle
    from quadpic import ProjectiveQuadric, phi_det

    q = real(*pm)
    model = real_lattice([q] + [real(*o) for o in others], depth=3)
    quadric = ProjectiveQuadric(q)
    dec = decompose_real(q, model)
    base_value = phi_det(quadric, model.base, model)
    for token in model.extension_tokens():
        total = base_value
        for s in dec.summands:
            total = total + phi_ratio_summand(s, token, model)
        assert phi_det(quadric, token, model) == total


@given(signatures)
@settings(deadline=None, max_examples=30)
def test_upper_and_lower_counts_match(pm):
    q = real(*pm)
    model = real_lattice([q], depth=2)
    dec = decompose_real(q, model)
    for token in model.extension_tokens():
        for s in dec.summands:
            upper, lower = tate_counts(s, token, model)
            assert len(upper) == len(lower)


def test_t_equivalence_examples():
    model = real_lattice([], depth=0)
    d31 = decompose_real(real(3, 1), model)
    d20 = decompose_real(real(2, 0), model)
    assert t_equivalent([d31], [d20], model)
    d40 = decompose_real(real(4, 0), model)
    d80 = decompose_real(real(8, 0), model)
    assert not t_equivalent([d40], [d80], model)
    assert t_equivalent([d31, d40], [d40, d20], model)


@given(st.lists(signatures, min_size=1, max_size=3), signatures)
@settings(deadline=None, max_examples=25)
def test_t_equivalence_stable_under_adjoining(sigs, extra):
    model = real_lattice([], depth=0)
    decs = [decompose_real(real(*pm), model) for pm in sigs]
    bonus = decompose_real(real(*extra), model)
    assert t_equivalent(decs, list(decs), model)
    assert t_equivalent(decs + [bonus], list(decs) + [bonus], model)


# --------------------------------------------------------- declared models


def twin_model():
    data = {
        "forms": [
            {"id": "c1", "dim": 3, "prime": "c1p"},
            {"id": "c1p", "dim": 4},
            {"id": "c2", "dim": 3, "prime": "c2p"},
            {"id": "c2p", "dim": 4},
        ],
        "extensions": [
            {"id": "k", "construction": "base"},
            {"id": "k(c1)", "parent": "k", "construction": "ff:c1"},
            {"id": "k(c2)", "parent": "k", "construction": "ff:c2"},
        ],
        "witt": [
            {"form": f, "extension": e, "index": i}
            for f in ("c1", "c1p", "c2", "c2p")
            for e, i in (("k", 0), ("k(c1)", 1), ("k(c2)", 1))
        ],
    }
    return declared_lattice_from_data(data)


def rank2_summand(quadric_id):
    return {
        "tates": [],
        "summands": [
            {"class": {"quadric": quadric_id, "planes": 0}, "shift": 0, "kind": "declared"}
        ],
    }


def test_declared_decomposition_accepted_and_shared_class():
    model = twin_model()
    declare_decompositions({"c1": rank2_summand("c1"), "c2": rank2_summand("c2")}, model)
    d1, d2 = registered(model, "c1"), registered(model, "c2")
    # the two level-0 Grassmannians are stably birational: one class id
    assert d1.summands[0].cls == d2.summands[0].cls
    assert t_equivalent([d1], [d2], model)


def test_declared_rank_mismatch_rejected():
    model = twin_model()
    bad = rank2_summand("c1")
    bad["tates"] = [{"x": 0, "y": 0}]  # rank 3 on a rank-2 motive
    with pytest.raises(ModelError):
        declare_decompositions({"c1": bad}, model)


def test_declared_unknown_grassmannian_rejected():
    model = twin_model()
    with pytest.raises(ModelError) as exc:
        declare_decompositions({"c1": rank2_summand("ghost")}, model)
    assert str(exc.value) == "summand class over unknown quadric 'ghost'"
    assert model.memos["decompositions"] == {}


def test_redeclaration_is_idempotent_but_conflicts_raise():
    model = twin_model()
    declare_decompositions({"c1": rank2_summand("c1")}, model)
    d1 = registered(model, "c1")
    declare_decompositions({"c1": rank2_summand("c1")}, model)
    assert registered(model, "c1") is d1
    conflicting = {
        "tates": [{"x": 0, "y": 0}, {"x": 1, "y": 2}],
        "summands": [],
    }
    with pytest.raises(ModelError):
        declare_decompositions({"c1": conflicting}, model)


def test_decompose_real_refuses_declared_backend():
    model = twin_model()
    with pytest.raises(ModelError):
        registered_decomposition(ProjectiveQuadric(model.form("c1")), model)


def test_declared_summands_have_no_tate_counts():
    model = twin_model()
    declare_decompositions({"c1": rank2_summand("c1")}, model)
    dec = registered(model, "c1")
    with pytest.raises(ModelError):
        tate_counts(dec.summands[0], "k", model)


_CONIC_SUMMAND = {"class": {"quadric": "(2,1)", "planes": 0}, "shift": 0, "kind": "declared"}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"tates": [{"x": 1}]}, 'decomps["(2,1)"].tates[0].y missing'),
        ({"summands": [{**_CONIC_SUMMAND, "class": {"quadric": "(2,1)"}}]},
         'decomps["(2,1)"].summands[0].class.planes missing'),
        ([_CONIC_SUMMAND], 'decomps["(2,1)"] must be an object'),
        ({"tates": 5}, 'decomps["(2,1)"].tates must be a list'),
        ({"tates": [{"x": "0", "y": "0"}, {"x": 1, "y": 2}]},
         'decomps["(2,1)"].tates[0].x must be an integer'),
        ({"summands": [{**_CONIC_SUMMAND, "shift": "0"}]},
         'decomps["(2,1)"].summands[0].shift must be an integer'),
        ({"summands": [{**_CONIC_SUMMAND, "class": {"quadric": "(2,1)", "planes": "0"}}]},
         'decomps["(2,1)"].summands[0].class.planes must be an integer'),
    ],
    ids=["tate-without-y", "class-without-planes", "list", "tates-not-a-list",
         "string-tate", "string-shift", "string-planes"],
)
def test_declare_decomposition_refuses_malformed_data_as_the_cli_does(
    tmp_path, capsys, data, message
):
    snapshot = lattice_to_data(real_lattice([real(2, 1)], depth=0))
    model = declared_lattice_from_data(snapshot)
    with pytest.raises(ModelError) as exc:
        declare_decompositions({"(2,1)": data}, model)
    assert str(exc.value) == message
    assert model.memos["decompositions"] == {}

    model_file, decomps_file = tmp_path / "model.json", tmp_path / "decomps.json"
    model_file.write_text(json.dumps(snapshot), encoding="utf-8")
    decomps_file.write_text(json.dumps({"(2,1)": data}), encoding="utf-8")
    code = main(["--model", str(model_file), "--decomps", str(decomps_file),
                 "decompose", "--form", "(2,1)"])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_a_decomps_table_checks_each_entry_once_in_the_cli_order(monkeypatch):
    import quadpic.decomp as decomp
    import quadpic.modelfile as modelfile

    snapshot = lattice_to_data(real_lattice([real(2, 1), real(3, 0)], depth=0))
    model = declared_lattice_from_data(snapshot)
    conic = {"summands": [_CONIC_SUMMAND]}
    table = {key: conic for key in ("(3,0)", "(2,1)")}
    checked = []
    honest = modelfile.check_json
    monkeypatch.setattr(modelfile, "check_json",
                        lambda value, path, shape: checked.append(path) or honest(value, path, shape))
    decomp.declare_decompositions(table, model)
    assert checked == ['decomps["(2,1)"]', 'decomps["(3,0)"]']
    assert sorted(model.memos["decompositions"]) == [("(2,1)", False), ("(3,0)", False)]

    # the nesting bound, then the top-level object, then per sorted id:
    # shape, form lookup, declaration
    deep = []
    for _ in range(600):
        deep = [deep]
    for bad, message in (
        (deep, "JSON nests deeper than the parser allows"),
        ([conic], "decomps must be a JSON object, not list"),
        ({"(2,1)": conic, "nope": [], "zz": 1}, 'decomps["nope"] must be an object'),
        ({"(2,1)": conic, "nope": conic, "(2,2)": []}, 'decomps["(2,2)"] must be an object'),
        ({"(2,1)": conic, "nope": conic}, "unknown form 'nope'"),
    ):
        with pytest.raises(ModelError) as exc:
            decomp.declare_decompositions(bad, declared_lattice_from_data(snapshot))
        assert str(exc.value) == message


def test_a_refused_summand_class_leaves_no_root_behind():
    # the refused key used to join the union-find before its Grassmannian was
    # built, and every later key was compared against it and refused in turn
    model = declared_lattice_from_data(lattice_to_data(real_lattice(real_forms(4), depth=2)))

    def summand(quadric, planes):
        return {"summands": [{"class": {"quadric": quadric, "planes": planes},
                              "shift": 0, "kind": "rost:2"}]}

    with pytest.raises(ModelError) as exc:
        declare_decompositions({"(2,1)": summand("(3,0)", 3)}, model)
    assert str(exc.value) == "G((3,0),3): plane level out of range"
    assert model.memos["classes"] == {}
    assert model.memos["decompositions"] == {}
    declare_decompositions({"(2,1)": summand("(2,1)", 0)}, model)
    dec = registered(model, "(2,1)")
    assert [s.cls.render() for s in dec.summands] == ["(2,1)#0"]
    assert list(model.memos["classes"]) == [dec.summands[0].cls]


def test_decomposition_json_round_trip():
    from quadpic.decomp import Decomposition

    model = real_lattice([], depth=0)
    dec = decompose_real(real(5, 0), model)
    again = Decomposition.from_json(dec.quadric, dec.to_json())
    assert again == dec


@pytest.mark.parametrize(
    "forms, depth",
    [
        ([real(3, 0), real(2, 1)], 2),
        (real_forms(6), 2),
        (real_forms(8), 3),
    ],
    ids=["pair", "dim6", "dim8"],
)
def test_a_snapshot_declares_back_every_real_decomposition(forms, depth):
    # the Pfister class quadric of each Rost block is registered with the
    # decomposition, so the lattice's snapshot knows every summand class
    model = real_lattice(forms, depth=depth)
    decompositions = {q.key: decompose_real(q, model) for q in forms if q.dim >= 2}
    declared = declared_lattice_from_data(lattice_to_data(model))
    for key, dec in decompositions.items():
        declare_decompositions({key: dec.to_json()}, declared)
        back = registered(declared, key)
        assert back.tates == dec.tates and blocks(back) == blocks(dec)
