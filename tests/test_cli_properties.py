"""Property tests for the CLI contract.

Whatever the expression, model file or decompositions file, cli.main lets no
exception escape and exits 0, 1 or 2, and only a verdict command exits 1.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from quadpic import QuadraticForm, lattice_to_data, real_lattice
from quadpic.cli import main

VERDICT_COMMANDS = {"inverse-check", "independent", "equiv", "relations", "validate"}

FORM_IDS = ("a", "b", "c", "(1,1)")
EXT_IDS = ("k", "L", "M", "N")

# a fixed alphabet spares hypothesis building its unicode tables on a cold start
NOISE = "abkL():|,-1é "

PROPERTY = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.sampled_from(FORM_IDS + EXT_IDS),
    st.text(alphabet=NOISE, max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet=NOISE, max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


def _check(argv, command):
    """One in-process request of the given command; its output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or command in VERDICT_COMMANDS, (argv, code)


# ------------------------------------------------------------ expressions

signature = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda pm: f"({pm[0]},{pm[1]})")
factor = st.one_of(
    signature.map(lambda s: f"det{s}"),
    signature.map(lambda s: f"e {s}"),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda xy: f"T({xy[0]})[{xy[1]}]"),
    st.text(alphabet="det()[],^T0123456789- x", max_size=8),
)
power = st.one_of(
    st.just(""), st.integers(-3, 3).map(lambda k: f"^{k}"), st.text(alphabet="^-x1 ", max_size=3)
)
expressions = st.lists(st.tuples(factor, power).map("".join), min_size=1, max_size=3).map(
    " * ".join
)


@PROPERTY
@given(expressions, st.integers(0, 2), st.integers(0, 3))
def test_basis_expressions_never_escape(expr, depth, maxr):
    _check(["--lattice-depth", str(depth), "basis", f"--expr={expr}", "--maxr", str(maxr)],
           "basis")


# ------------------------------------------------------------ model files

constructions = st.one_of(
    st.sampled_from(FORM_IDS).map(lambda f: f"ff:{f}"),
    st.tuples(st.sampled_from(FORM_IDS), st.sampled_from(["0", "1", "x"])).map(
        lambda fn: f"gff:{fn[0]}:{fn[1]}"
    ),
    st.lists(st.sampled_from(EXT_IDS), min_size=1, max_size=3).map(
        lambda parts: "join:" + "|".join(parts)
    ),
    st.text(alphabet=NOISE, max_size=5),
)


FORM_ID_LISTS = st.lists(st.sampled_from(FORM_IDS), unique=True, max_size=3)
EXT_ID_LISTS = st.lists(st.sampled_from(EXT_IDS[1:]), unique=True, max_size=3)


def _random_model(draw):
    """A small total model with random Witt indices; it rarely passes validation."""
    form_ids = draw(FORM_ID_LISTS)
    dim = draw(st.integers(1, 4))
    forms = []
    for i, f in enumerate(form_ids):
        forms.append({"id": f, "dim": dim + i})
        if i and draw(st.booleans()):  # a prime link raises the dimension by one
            forms[i - 1]["prime"] = f
    ext_ids = ["k"] + draw(EXT_ID_LISTS)
    extensions = [{"id": "k", "construction": "base"}] + [
        {"id": e, "parent": ext_ids[draw(st.integers(0, i))], "construction": draw(constructions)}
        for i, e in enumerate(ext_ids[1:])
    ]
    witt = [
        {"form": f, "extension": e, "index": draw(st.integers(0, 3))}
        for f in form_ids for e in ext_ids
    ]
    return {"forms": forms, "extensions": extensions, "witt": witt}


# valid snapshots of small real lattices, served as declared models
SNAPSHOTS = [
    lattice_to_data(real_lattice([QuadraticForm.real(2, 1), QuadraticForm.real(3, 0)], depth=1)),
    lattice_to_data(real_lattice([QuadraticForm.real(0, 2), QuadraticForm.real(1, 1)], depth=2)),
]


DAMAGE = st.sampled_from(["none", "none", "none", "field", "section", "whole"])
SECTIONS = st.sampled_from(["extensions", "forms", "witt"])
FIELD_VALUES = st.one_of(json_values, st.integers(0, 3))
MODEL_COMMANDS = st.sampled_from(["validate", "phi", "e", "det", "inverse-check", "decompose",
                                  "equiv", "relations", "independent"])
ROUTES = st.sampled_from(["sum", "tower", "both"])


@st.composite
def model_requests(draw):
    """(model data, argv): a snapshot or a random model, maybe damaged once.

    Strategies are built once at module level: hypothesis validates every
    new strategy, and building them per draw costs more than the CLI.
    """
    def pick(options):  # one entry of a list known only at draw time
        return options[draw(st.integers(0, len(options) - 1))]

    if draw(st.booleans()):
        data = copy.deepcopy(pick(SNAPSHOTS))
    else:
        data = _random_model(draw)
    form_ids = [f["id"] for f in data["forms"]] + ["zz"]
    ext_ids = [e["id"] for e in data["extensions"]] + ["nowhere"]
    damage, section = draw(DAMAGE), draw(SECTIONS)
    if damage == "whole":
        data = draw(json_values)
    elif damage == "section" or (damage == "field" and not data[section]):
        data[section] = draw(json_values)
    elif damage == "field":
        entry = pick(data[section])
        key = pick(sorted(entry) + ["extra"])
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(FIELD_VALUES)
    command = draw(MODEL_COMMANDS)
    if command == "validate":
        argv = [command]
    elif command == "phi":
        argv = [command, "--form", pick(form_ids), "--ext", pick(ext_ids), "--route", draw(ROUTES)]
    elif command in ("equiv", "relations"):
        flags = ("--left", "--right") if command == "equiv" else ("--lhs", "--rhs")
        argv = [command, flags[0], pick(form_ids), flags[1], pick(form_ids)]
    elif command == "independent":
        argv = [command, "--forms", ";".join(pick(form_ids) for _ in range(draw(st.integers(1, 3))))]
    else:
        argv = [command, "--form", pick(form_ids)]
    return data, argv


@PROPERTY
@given(model_requests())
def test_model_files_never_escape(tmp_path, model_request):
    data, command = model_request
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    _check(["--model", str(path), *command], command[0])


# ---------------------------------------------------- decompositions files

TWINS = {
    "forms": [
        {"id": "c1", "dim": 3, "prime": "c1p"}, {"id": "c1p", "dim": 4},
        {"id": "c2", "dim": 3, "prime": "c2p"}, {"id": "c2p", "dim": 4},
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
TWIN_IDS = ("c1", "c2", "c1p", "zz")


def _maybe(strategy):
    """Mostly the well-typed value, sometimes any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


tates = st.fixed_dictionaries({}, optional={"x": _maybe(st.integers(-3, 6)),
                                            "y": _maybe(st.integers(-3, 12))})
summands = st.fixed_dictionaries({}, optional={
    "class": _maybe(st.fixed_dictionaries({}, optional={
        "quadric": _maybe(st.sampled_from(TWIN_IDS)), "planes": _maybe(st.integers(-1, 2)),
    })),
    "shift": _maybe(st.integers(-1, 3)),
    "kind": _maybe(st.sampled_from(["declared", "rost:2", "rost:x"])),
})
decompositions = st.fixed_dictionaries({}, optional={
    "tates": _maybe(st.lists(tates, max_size=2)), "summands": _maybe(st.lists(summands, max_size=2)),
})
decomps_tables = st.one_of(
    st.dictionaries(st.sampled_from(TWIN_IDS), _maybe(decompositions), max_size=3), json_values
)


@PROPERTY
@given(decomps_tables, st.sampled_from([
    ["relations", "--lhs", "c1", "--rhs", "c2"],
    ["decompose", "--form", "c1"],
    ["equiv", "--left", "c1", "--right", "c2"],
    ["det", "--form", "c2"],
]))
def test_decomps_files_never_escape(tmp_path, table, command):
    model = tmp_path / "twins.json"
    model.write_text(json.dumps(TWINS), encoding="utf-8")
    decomps = tmp_path / "decomps.json"
    decomps.write_text(json.dumps(table), encoding="utf-8")
    _check(["--model", str(model), "--decomps", str(decomps), *command], command[0])
