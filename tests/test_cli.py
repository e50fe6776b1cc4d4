import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadpic

from quadpic import generator_e, lattice_to_data, real_lattice, serialize_model
from quadpic.acceptance import real_forms
from quadpic.cli import main
from quadpic.decomp import Decomposition, decompose_real
from quadpic.forms import QuadraticForm
from quadpic.twists import TateTwist

real = QuadraticForm.real


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "--form", "(0,5)", "--ext", "base")
    assert code == 0 and out.strip() == "(0)[0]"
    code, out, _ = run(capsys, "phi", "--form", "(5,0)", "--ext", "base/(5,0)")
    assert code == 0 and out.strip() == "(1)[2]"


def test_phi_routes_agree(capsys):
    for route in ("sum", "tower", "both"):
        code, out, _ = run(
            capsys, "phi", "--form", "(5,0)", "--ext", "base/(5,0)", "--route", route
        )
        assert code == 0 and out.strip() == "(1)[2]"


def test_phi_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "phi", "--form", "(1,1)", "--ext", "base")
    payload = json.loads(out)
    assert TateTwist.from_json(payload["value"]) == TateTwist(1, 2)


def test_inverse_check_exit_codes(capsys):
    code, out, _ = run(capsys, "inverse-check", "--form", "(1,1)")
    assert code == 0 and "constant (2)[5]" in out


def test_e_fingerprint_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "e", "--form", "(2,1)")
    fingerprint = json.loads(out)["fingerprint"]
    assert fingerprint["base"] == {"x": 1, "y": 3}
    model = real_lattice([real(2, 1)], depth=3)
    expected = generator_e(real(2, 1), model).fingerprint()
    assert fingerprint == {t: v.to_json() for t, v in expected.items()}


def test_det_flag_argument(capsys):
    code, default_out, _ = run(capsys, "--json", "det", "--form", "(3,1)")
    assert code == 0
    code, flagged_out, _ = run(
        capsys, "--json", "det", "--form", "(3,1)", "--flag", "(3,0);(2,0);(1,0)"
    )
    assert code == 0
    default_fp = json.loads(default_out)["fingerprint"]
    flagged_fp = json.loads(flagged_out)["fingerprint"]
    assert default_fp == flagged_fp
    assert json.loads(default_out)["element"] != json.loads(flagged_out)["element"]


def test_independent_certificate_and_refusal(capsys):
    code, out, _ = run(
        capsys, "--json", "independent", "--forms", "(0,1);(0,2);(0,4);(0,8)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["independent"]
    assert [s["form"] for s in payload["order"]] == ["(0,8)", "(0,4)", "(0,2)", "(0,1)"]
    assert all(s["twist"] != {"x": 0, "y": 0} for s in payload["order"])

    code, out, _ = run(capsys, "--json", "independent", "--forms", "(0,2);(1,3)")
    assert code == 1
    payload = json.loads(out)
    assert not payload["independent"]
    assert ["(0,2)", "(1,3)"] in payload["pairs"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_declared_snapshot_certifies_as_the_real_backend_does(tmp_path, capsys, json_flag):
    # the certificate's witnesses are read through the declared model's
    # function-field nodes (DeclaredLattice.extend_by_function_field)
    path = tmp_path / "model.json"
    path.write_text(serialize_model(lattice_to_data(real_lattice(real_forms(4), depth=2))),
                    encoding="utf-8")
    request = ["independent", "--forms", "(0,1);(0,2);(0,4)"]
    real_run = run(capsys, *json_flag, "--lattice-depth", "2", *request)
    declared_run = run(capsys, *json_flag, "--model", str(path), *request)
    assert real_run[0] == 0 and "independent" in real_run[1]
    assert declared_run == real_run


def test_equiv_exit_codes(capsys):
    assert run(capsys, "equiv", "--left", "(4,0)", "--right", "(0,4)")[0] == 0
    assert run(capsys, "equiv", "--left", "(4,0)", "--right", "(3,1)")[0] == 1


def test_decompose_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "decompose", "--form", "(5,0)")
    assert code == 0
    payload = json.loads(out)
    rebuilt = Decomposition.from_json(payload["quadric"], payload["decomposition"])
    assert rebuilt.to_json() == payload["decomposition"]
    assert [s.kind for s in rebuilt.summands] == ["rost:2", "rost:3"]


def test_relations_command(capsys):
    code, out, _ = run(capsys, "relations", "--lhs", "(3,1)", "--rhs", "(2,0)")
    assert code == 0
    code, out, _ = run(capsys, "relations", "--lhs", "(3,0)", "--rhs", "(2,0)")
    assert code == 1


def test_basis_command(capsys):
    code, out, _ = run(capsys, "--json", "basis", "--expr", "det (8,0)", "--maxr", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coords"] == [{"coeff": -4, "fold": 3}]
    code, _, err = run(capsys, "basis", "--expr", "det (8,0)", "--maxr", "2")
    assert code == 2 and "insufficient maxr" in err


def test_basis_expression_grammar(capsys):
    # e^(0,3) is the pure-part generator: the inverse of the 2-fold
    # Pfister generator modulo Tate twists, so its square has coordinate -2
    code, out, _ = run(
        capsys, "--json", "basis", "--expr", "e(0,3)^2 * T(1)[2]", "--maxr", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coords"] == [{"coeff": -2, "fold": 2}]
    code, _, err = run(capsys, "basis", "--expr", "wat", "--maxr", "2")
    assert code == 2


def test_validate_real_and_declared(tmp_path, capsys):
    assert run(capsys, "validate", "--forms", "(5,0);(3,2)")[0] == 0

    data = lattice_to_data(real_lattice([real(3, 0)], depth=1))
    good = tmp_path / "good.json"
    good.write_text(serialize_model(data), encoding="utf-8")
    assert run(capsys, "--model", str(good), "validate")[0] == 0

    for entry in data["witt"]:
        if entry["form"] == "(3,0)" and entry["extension"] == "base":
            entry["index"] = 9
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_model(data), encoding="utf-8")
    code, out, _ = run(capsys, "--model", str(bad), "validate")
    assert code == 1 and "ceiling" in out

    # every other command refuses the broken model outright
    code, _, err = run(capsys, "--model", str(bad), "phi", "--form", "(3,0)")
    assert code == 2


def test_rejected_model_is_one_stderr_line(tmp_path, capsys):
    data = lattice_to_data(real_lattice([real(p, 6 - p) for p in range(7)], depth=2))
    for entry in data["witt"]:
        if entry["form"] == "(4,2)":
            entry["index"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_model(data), encoding="utf-8")
    violations = main(["--model", str(bad), "validate"])
    lines = capsys.readouterr().out.splitlines()
    assert violations == 1 and len(lines) > 1

    code, out, err = run(capsys, "--model", str(bad), "inverse-check", "--form", "(4,2)")
    assert code == 2 and out == ""
    assert err == (
        f"error: declared model rejected: {len(lines)} violations; first: {lines[0]}\n"
    )


def _chain_model_dropping_at_the_top():
    """k < L1 < L2 < L3, with both forms at i_W 2 until they drop to 0 at L3."""
    tokens = [("k", None, "base"), ("L1", "k", "ff:a"), ("L2", "L1", "ff:b"),
              ("L3", "L2", "ff:a")]
    return {
        "forms": [{"id": "a", "dim": 4}, {"id": "b", "dim": 4}],
        "extensions": [
            {"id": tok, "construction": c, **({"parent": parent} if parent else {})}
            for tok, parent, c in tokens
        ],
        "witt": [
            {"form": f, "extension": tok, "index": 0 if tok == "L3" else 2}
            for f in ("a", "b")
            for tok, _, _ in tokens
        ],
    }


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(_chain_model_dropping_at_the_top()), encoding="utf-8")
    src = str(Path(quadpic.__file__).resolve().parent.parent)
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "quadpic", "--model", str(path), "validate"],
            env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 1 and done.stderr == ""
        outputs.add(done.stdout)
    assert len(outputs) == 1
    first = next(iter(outputs)).splitlines()[0]
    assert first == "[monotonicity] form a at L3: i_W drops from 2 at L1 to 0"


def test_a_chain_deeper_than_the_recursion_limit_is_a_valid_model(tmp_path, capsys):
    """k < e01500 < e01499 < ... < e00001, named deepest-first: every query
    walks 1,500 levels of ancestors."""
    names = [f"e{i:05d}" for i in range(1500, 0, -1)]
    parents = ["k", *names[:-1]]
    data = {
        "forms": [{"id": "c1", "dim": 3}],
        "extensions": [{"id": "k", "construction": "base"}] + [
            {"id": tok, "construction": "ff:c1", "parent": parent}
            for tok, parent in zip(names, parents)
        ],
        "witt": [{"form": "c1", "extension": "k", "index": 0}] + [
            {"form": "c1", "extension": tok, "index": 1} for tok in names
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(data), encoding="utf-8")
    code, out, _ = run(capsys, "--model", str(path), "validate")
    assert (code, out.strip()) == (0, "ok")
    code, out, _ = run(capsys, "--model", str(path), "equiv", "--left", "c1", "--right", "c1")
    assert (code, out.strip()) == (0, "equivalent")


def test_declared_model_commands(tmp_path, capsys):
    data = lattice_to_data(real_lattice([real(3, 0), real(2, 1)], depth=2))
    path = tmp_path / "model.json"
    path.write_text(serialize_model(data), encoding="utf-8")
    code, out, _ = run(
        capsys, "--model", str(path), "phi", "--form", "(3,0)", "--ext", "base/(3,0)"
    )
    assert code == 0 and out.strip() == "(1)[2]"
    code, out, _ = run(
        capsys, "--model", str(path), "equiv", "--left", "(3,0)", "--right", "(3,0)"
    )
    assert code == 0


def test_declared_decompositions_via_decomps_file(tmp_path, capsys):
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
    model_file = tmp_path / "twins.json"
    model_file.write_text(serialize_model(data), encoding="utf-8")
    decomps = {
        name: {
            "tates": [],
            "summands": [
                {"class": {"quadric": name, "planes": 0}, "shift": 0, "kind": "declared"}
            ],
        }
        for name in ("c1", "c2")
    }
    decomps_file = tmp_path / "decomps.json"
    decomps_file.write_text(json.dumps(decomps), encoding="utf-8")

    code, _, err = run(
        capsys, "--model", str(model_file), "relations", "--lhs", "c1", "--rhs", "c2"
    )
    assert code == 2 and "decomposition" in err  # no decompositions registered

    code, out, _ = run(
        capsys, "--model", str(model_file), "--decomps", str(decomps_file), "--json",
        "relations", "--lhs", "c1", "--rhs", "c2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fingerprint_equal_mod_tate"] and payload["tate_equivalent"]

    code, _, err = run(capsys, "--decomps", str(decomps_file), "relations",
                       "--lhs", "(3,1)", "--rhs", "(2,0)")
    assert code == 2 and "--model" in err


def test_declared_twins_agree_when_sorted_ids_and_class_order_differ(tmp_path, capsys):
    # "PP" is declared before "Q" (sorted ids), but the class key Q#0 sorts
    # first, so PP's registered classes stop being roots once Q's are declared
    names = ("PP", "Q")
    tokens = ["k"] + [f"k({n})" for n in names] + [f"k(G({n},1))" for n in names]
    data = {
        "forms": [entry for n in names
                  for entry in ({"id": n, "dim": 5, "prime": f"{n}p"}, {"id": f"{n}p", "dim": 6})],
        "extensions": [{"id": "k", "construction": "base"}]
        + [{"id": f"k({n})", "parent": "k", "construction": f"ff:{n}"} for n in names]
        + [{"id": f"k(G({n},1))", "parent": "k", "construction": f"gff:{n}:1"} for n in names],
        "witt": [
            {"form": f, "extension": t, "index": i}
            for f in ("PP", "PPp", "Q", "Qp")
            for t, i in zip(tokens, (0, 1, 1, 2, 2))
        ],
    }
    model_file = tmp_path / "twin.json"
    model_file.write_text(serialize_model(data), encoding="utf-8")
    decomps = {
        n: {
            "tates": [],
            "summands": [
                {"class": {"quadric": n, "planes": planes}, "shift": planes, "kind": "declared"}
                for planes in (0, 1)
            ],
        }
        for n in names
    }
    decomps_file = tmp_path / "decomps.json"
    decomps_file.write_text(json.dumps(decomps), encoding="utf-8")
    common = ("--model", str(model_file), "--decomps", str(decomps_file))
    assert run(capsys, *common, "equiv", "--left", "PP", "--right", "Q") == (0, "equivalent\n", "")
    code, out, err = run(capsys, *common, "--json", "relations", "--lhs", "PP;Q", "--rhs", "PP;PP")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["fingerprint_equal_mod_tate"] and payload["tate_equivalent"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--decomps", "{missing}", "validate"], "--decomps needs --model"),
        (["--decomps", "{missing}", "validate", "--forms", "(3,0)"], "--decomps needs --model"),
        (["--decomps", "{missing}", "basis", "--expr", "det (4,0)", "--maxr", "2"],
         "--decomps needs --model"),
        (["--decomps", "{missing}", "e", "--form", "(3,0)"], "--decomps needs --model"),
        (["--model", "{model}", "basis", "--expr", "det (4,0)", "--maxr", "2"],
         "the Pfister basis exists over the real backend"),
        (["--model", "{model}", "validate", "--forms", "(9,9)"],
         "validate --forms does not apply with --model"),
        (["--model", "{model}", "--lattice-depth", "2", "validate"],
         "--lattice-depth does not apply with --model"),
        (["--model", "{model}", "--lattice-depth", "3", "e", "--form", "(3,0)"],
         "--lattice-depth does not apply with --model"),
    ],
    ids=["decomps-validate", "decomps-validate-forms", "decomps-basis", "decomps-e",
         "model-basis", "model-validate-forms", "model-depth-validate", "model-depth-e"],
)
def test_an_option_the_command_would_not_read_exits_two(tmp_path, capsys, argv, message):
    model = tmp_path / "model.json"
    model.write_text(serialize_model(lattice_to_data(real_lattice([real(3, 0)], depth=1))),
                     encoding="utf-8")
    places = {"{missing}": str(tmp_path / "missing.json"), "{model}": str(model)}
    argv = [places.get(arg, arg) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_validate_declares_the_decomps_of_a_table_that_validates(tmp_path, capsys):
    data = lattice_to_data(real_lattice([real(3, 1)], depth=1))
    model = tmp_path / "model.json"
    model.write_text(serialize_model(data), encoding="utf-8")
    decomps = tmp_path / "decomps.json"
    decomps.write_text(json.dumps({"(3,1)": 5}), encoding="utf-8")
    message = 'error: decomps["(3,1)"] must be an object\n'
    for command in (["validate"], ["e", "--form", "(3,1)"]):
        assert run(capsys, "--model", str(model), "--decomps", str(decomps), *command) == (
            2, "", message)
    q = real(3, 1)
    table = {q.key: decompose_real(q, real_lattice([q], depth=1)).to_json()}
    decomps.write_text(json.dumps(table), encoding="utf-8")
    assert run(capsys, "--model", str(model), "--decomps", str(decomps), "validate") == (
        0, "ok\n", "")
    # a table that fails validation is reported, and its decomps are not read
    for entry in data["witt"]:
        if entry["form"] == "(3,1)" and entry["extension"] == "base":
            entry["index"] = 9
    model.write_text(serialize_model(data), encoding="utf-8")
    code, out, err = run(capsys, "--model", str(model), "--decomps",
                         str(tmp_path / "missing.json"), "validate")
    assert (code, err) == (1, "") and out.startswith("[ceiling] form (3,1) at base:")


def test_a_deep_value_in_a_later_decomps_entry_is_refused_for_its_nesting(tmp_path, capsys):
    # every version parses 900 levels; without a walk, the first entry would
    # be declared and the second refused for its shape
    q = real(3, 1)
    model = tmp_path / "model.json"
    model.write_text(serialize_model(lattice_to_data(real_lattice([q], depth=1))),
                     encoding="utf-8")
    first = decompose_real(q, real_lattice([q], depth=1)).to_json()
    decomps = tmp_path / "decomps.json"
    decomps.write_text('{"(3,1)": ' + json.dumps(first) + ', "(4,1)": '
                       + "[" * 900 + "]" * 900 + "}", encoding="utf-8")
    assert run(capsys, "--model", str(model), "--decomps", str(decomps), "validate") == (
        2, "", "error: JSON nests deeper than the parser allows\n")


def test_malformed_inputs_exit_two(tmp_path, capsys):
    assert run(capsys, "phi", "--form", "nonsense")[0] == 2
    assert run(capsys, "phi", "--form", "(1,0)", "--ext", "nowhere")[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert run(capsys, "--model", str(broken), "validate")[0] == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ({"forms": [{"dim": 3}]}, "forms[0].id missing"),
        ([], "model must be a JSON object, not list"),
        (
            {
                "forms": [{"id": "c1", "dim": 3}],
                "extensions": [{"id": "k", "construction": "base"}],
                "witt": [{"form": "c1", "index": 0}],
            },
            "witt[0].extension missing",
        ),
    ],
    ids=["missing-id", "top-level-list", "witt-without-extension"],
)
def test_malformed_model_files_exit_two(tmp_path, capsys, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "--model", str(path), "validate")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_malformed_tate_factors_exit_two(capsys):
    for expr in ("T(1)[2", "T1]2["):
        code, out, err = run(capsys, "basis", "--expr", expr, "--maxr", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse Tate factor") and err.count("\n") == 1


def test_negative_lattice_depth_exits_two(capsys):
    for depth, message in [("-1", "must be >= 0"), ("x", "invalid int value: 'x'")]:
        with pytest.raises(SystemExit) as exc:
            main(["--lattice-depth", depth, "validate", "--forms", "(5,0)"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and f"--lattice-depth: {message}" in out.err


@pytest.mark.parametrize("argv", [
    ["basis", "--expr=--", "--maxr", "0"],
    ["phi", "--form=--"],
    ["phi", "--form", "(1,1)", "--ext=--"],
    ["--model=--", "validate"],
])
def test_double_dash_option_values_exit_two(capsys, argv):
    # some Python versions parse "--opt=--" as an empty list, not a string
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "expected one argument" in out.err


@pytest.mark.parametrize("argv, option", [
    (["basis", "--maxr=--", "--expr", "x"], "--maxr"),
    (["--lattice-depth=--", "phi", "--form", "(1,1)"], "--lattice-depth"),
])
def test_typed_options_given_double_dash_print_one_error_on_every_version(capsys, argv, option):
    # from Python 3.13 on, a typed option sees "--" itself; its converter must
    # not refuse it first, so the error is the one older versions print. The
    # usage block wraps differently across versions, so only the last line counts.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == f"quadpic: error: argument {option}: expected one argument"


def test_inverse_check_fails_on_a_model_that_validates(tmp_path, capsys):
    # c -> cp -> cpp is a prime chain with every index 0: each cell passes
    # validate, but e^c * e^cp is the identity, not T(1)[3]
    data = {
        "forms": [
            {"id": "c", "dim": 1, "prime": "cp"},
            {"id": "cp", "dim": 2, "prime": "cpp"},
            {"id": "cpp", "dim": 3},
        ],
        "extensions": [{"id": "k", "construction": "base"}],
        "witt": [{"form": f, "extension": "k", "index": 0} for f in ("c", "cp", "cpp")],
    }
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(data), encoding="utf-8")
    assert run(capsys, "--model", str(path), "validate")[0] == 0
    assert run(capsys, "--model", str(path), "inverse-check", "--form", "c") == (
        1, "fail at k: (0)[0] != (1)[3]\n", "")


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        # the empty quadric: det is the identity
        (["det", "--form", "(1,0)"], 0, "T(0)[0]\nbase: (0)[0]\n"),
        # a split prime, whose kernel is None
        (["independent", "--forms", "(1,0);(0,1)"], 1,
         "refused\n  prime (1,1) of (1,0) is isotropic over the base\n"),
        # a prime whose kernel has dim < 2
        (["independent", "--forms", "(1,1);(0,2)"], 1,
         "refused\n  prime (2,1) of (1,1) is isotropic over the base\n"),
    ],
)
def test_degenerate_real_forms_print_the_pinned_output(capsys, argv, code, stdout):
    assert run(capsys, *argv) == (code, stdout, "")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "--json", "decompose", "--form", "(6,2)")
    second = run(capsys, "--json", "decompose", "--form", "(6,2)")
    assert first == second


@pytest.mark.parametrize(
    "expr, stdout",
    [
        ("e(0,3)^2 * det(4,0) * T(1)[2]", "r=2: -4\ntate: (13)[30]\n"),
        ("det(4,0)^-1*e(2,1)^3", "r=2: 2\ntate: (-3)[-5]\n"),
        ("T(-1)[-3]^2 * e(1,1) * det (8,0)", "r=3: -4\ntate: (27)[56]\n"),
    ],
)
def test_basis_stdout_for_mixed_expressions(capsys, expr, stdout):
    assert run(capsys, "basis", "--expr", expr, "--maxr", "3") == (0, stdout, "")


@pytest.mark.parametrize(
    "expr, message",
    [
        ("wat * e(x)", "cannot parse factor 'wat'"),
        ("e(1,1)^x * e(y)", "invalid literal for int() with base 10: 'x'"),
        ("e(x)^y", "not a real form literal: '(x)'"),
    ],
)
def test_basis_expression_error_names_the_leftmost_defect(capsys, expr, message):
    assert run(capsys, "basis", "--expr", expr, "--maxr", "3") == (2, "", f"error: {message}\n")


def _model_with_extensions(extensions):
    return {
        "forms": [{"id": "a", "dim": 3}],
        "extensions": [{"id": "k", "construction": "base"}] + extensions,
        "witt": [
            {"form": "a", "extension": e["id"], "index": 0}
            for e in [{"id": "k"}] + extensions
        ],
    }


@pytest.mark.parametrize(
    "extensions, message",
    [
        (
            [{"id": "A", "parent": "k", "construction": "join:B"},
             {"id": "B", "parent": "k", "construction": "join:A"}],
            "parent graph has a cycle through ['A', 'B']",
        ),
        (
            [{"id": "A", "parent": "k", "construction": "join:A|k"}],
            "parent graph has a cycle through ['A']",
        ),
        (
            [{"id": "g", "parent": "k", "construction": "gff:a:x"}],
            "extension 'g': gff plane count 'x' is not an integer",
        ),
        *(
            # no Grassmannian has a negative plane count, and
            # extend_by_grassmannian writes a count only as str(n)
            ([{"id": "g", "parent": "k", "construction": f"gff:a:{planes}"}],
             f"extension 'g': gff plane count {planes!r} is not written as a non-negative integer")
            for planes in ("-1", "+1", " 1", "1_0", "01", "-0")
        ),
        (
            [{"id": "x", "parent": "zz", "construction": "ff:a"}],
            "unknown parent extension 'zz'",
        ),
        (
            [{"id": "x", "construction": "ff:a"}],
            "extension 'x' has neither a parent nor join constituents",
        ),
        (
            # a join construction lists its parts between bars
            [{"id": "a|b", "parent": "k", "construction": "ff:a"}],
            "extension token 'a|b' may not contain '|'",
        ),
    ],
    ids=["join-cycle", "self-join", "gff-plane-count", "gff-minus-one", "gff-plus-one",
         "gff-space", "gff-underscore", "gff-leading-zero", "gff-minus-zero", "unknown-parent",
         "parentless", "bar-in-id"],
)
def test_bad_constructions_exit_two(tmp_path, capsys, extensions, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_with_extensions(extensions)), encoding="utf-8")
    for argv in (["validate"], ["phi", "--form", "a"]):
        code, out, err = run(capsys, "--model", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_join_may_precede_its_constituents_in_the_file(tmp_path, capsys):
    extensions = [{"id": "A", "parent": "k", "construction": "join:B|k"},
                  {"id": "B", "parent": "k", "construction": "gff:a:0"}]
    data = _model_with_extensions(extensions)
    for entry in data["witt"]:
        entry["index"] = 1 if entry["extension"] in ("A", "B") else 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "--model", str(path), "validate") == (0, "ok\n", "")


_SUMMAND = {"class": {"quadric": "a", "planes": 0}, "shift": 0, "kind": "declared"}


@pytest.mark.parametrize(
    "table, message",
    [
        ({"a": {"summands": [{"shift": 0, "kind": "declared"}]}},
         'decomps["a"].summands[0].class missing'),
        ({"a": {"summands": [{**_SUMMAND, "class": {"planes": 0}}]}},
         'decomps["a"].summands[0].class.quadric missing'),
        ({"a": 5}, 'decomps["a"] must be an object'),
        ({"a": {"tates": [{"x": 1}], "summands": [_SUMMAND]}},
         'decomps["a"].tates[0].y missing'),
        ([], "decomps must be a JSON object, not list"),
        ({"a": {"summands": [{**_SUMMAND, "shift": "0"}]}},
         'decomps["a"].summands[0].shift must be an integer'),
    ],
    ids=["no-class", "no-quadric", "not-an-object", "tate-without-y", "top-level-list",
         "string-shift"],
)
def test_malformed_decomps_files_exit_two(tmp_path, capsys, table, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_with_extensions([])), encoding="utf-8")
    decomps = tmp_path / "decomps.json"
    decomps.write_text(json.dumps(table), encoding="utf-8")
    code, out, err = run(capsys, "--model", str(model), "--decomps", str(decomps),
                         "decompose", "--form", "a")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_seed_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "decompose", "--form", "(6,2)"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" not in err and "invalid choice: '7'" in err


def test_parser_is_built_once():
    from quadpic.cli import build_parser

    assert build_parser() is build_parser()
