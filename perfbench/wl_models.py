"""models: every op builds or loads its own lattice, as a CLI user does.

A round holds a fixed number of each op kind with seeded arguments:
real_lattice builds with validate, snapshot round trips through the JSON
model format and the declared backend, seeded declared-table mutants that
must be rejected, in-process ``quadpic.cli.main`` requests (real backend and
``--model`` snapshot files), and three malformed model files that must exit
with code 2.  Nothing is shared between ops, so caches that live on a
lattice never warm up.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass

import quadpic as qp
import quadpic.cli

from oracle import (
    Balanced,
    Op,
    inverse_constant,
    pfister_det_coefficient,
    phi_affine_base,
    render,
    signatures,
    witt_index_base,
)

SIZES = {
    # builds: every signature up to dim D at depth d, for each (D, d), `builds` times
    "full": {"build_sizes": ((8, 3), (9, 3), (10, 3), (12, 2)), "builds": 4,
             "snap_dim": 8, "snap_per_dim": 3, "snap_depth": 2, "snapshots": 8,
             "fixture_dim": 6, "mutants_per_family": 5,
             "cli_dims": (2, 7), "cli_depth": 2, "cli_sets": 6},
    "tiny": {"build_sizes": ((3, 1), (4, 1)), "builds": 1,
             "snap_dim": 3, "snap_per_dim": 2, "snap_depth": 1, "snapshots": 1,
             "fixture_dim": 4, "mutants_per_family": 1,
             "cli_dims": (2, 4), "cli_depth": 1, "cli_sets": 1},
}

FAMILIES = ("ceiling", "monotonicity", "codim-1-step", "self-isotropy")

# Each must be refused with exit code 2 and a one-line message.
MALFORMED = {
    "missing-id.json": {"forms": [{"dim": 3}]},
    "top-level-list.json": [],
    "witt-without-extension.json": {
        "forms": [{"id": "c1", "dim": 3}],
        "extensions": [{"id": "k", "construction": "base"}],
        "witt": [{"form": "c1", "index": 0}],
    },
}


@dataclass
class State:
    workdir: str
    ops: list


def _sig(p: int, m: int) -> str:
    return f"({p},{m})"


def _seeded_forms(rng, max_dim: int, per_dim: int) -> tuple:
    out = []
    for n in range(1, max_dim + 1):
        for p in sorted(rng.sample(range(n + 1), min(per_dim, n + 1))):
            out.append((p, n - p))
    return tuple(out)


def _real(sigs):
    return [qp.QuadraticForm.real(p, m) for p, m in sigs]


def mutate(data: dict, rng, family: str) -> dict:
    """A copy of a valid table with one entry changed to break the family."""
    d = copy.deepcopy(data)
    cell = {(w["form"], w["extension"]): w for w in d["witt"]}
    dims = {f["id"]: f["dim"] for f in d["forms"]}
    if family == "ceiling":
        entry = rng.choice(d["witt"])
        entry["index"] = dims[entry["form"]] // 2 + 1
    elif family == "monotonicity":
        choices = [(e, f) for e in d["extensions"] if "parent" in e
                   for f in sorted(dims) if cell[(f, e["parent"])]["index"] > 0]
        e, f = rng.choice(choices)
        cell[(f, e["id"])]["index"] = cell[(f, e["parent"])]["index"] - 1
    elif family == "codim-1-step":
        f = rng.choice([f for f in d["forms"] if "prime" in f])
        e = rng.choice(d["extensions"])["id"]
        cell[(f["prime"], e)]["index"] = cell[(f["id"], e)]["index"] + 2
    elif family == "self-isotropy":
        e = rng.choice([e for e in d["extensions"] if e["construction"].startswith("ff:")
                        and dims.get(e["construction"][3:], 0) >= 2])
        cell[(e["construction"][3:], e["id"])]["index"] = 0
    else:
        raise ValueError(family)
    return d


def _cli_ops(rng, sig, cfg, workdir, tag: int) -> list:
    """CLI requests with the exit code and output the benchmark predicts.

    `sig` draws signatures in shuffled passes shared by all the sets.  Sizes
    that move a request's cost much (the dimension of the non-equivalent
    pair, the Pfister fold, the number of forms to certify) follow the set's
    tag, not the seed.
    """
    lo, hi = cfg["cli_dims"]
    depth = cfg["cli_depth"]
    ops = []

    def request(argv, code, stdout=None, **meta):
        ops.append(Op("cli", tuple(argv), expect=(code, stdout), meta=meta))

    # one snapshot model file, written up front, serves the --model requests
    snap_forms = _seeded_forms(rng, hi, 2)
    snap = qp.real_lattice(_real(snap_forms), depth=depth)
    snap_path = os.path.join(workdir, f"snapshot-{tag}.json")
    with open(snap_path, "w", encoding="utf-8") as handle:
        handle.write(qp.serialize_model(qp.lattice_to_data(snap)))
    request(["--model", snap_path, "validate"], 0, "ok\n")
    for i in range(2):
        p, m = rng.choice([s for s in snap_forms if sum(s) >= 2])
        own = qp.real_lattice(_real([(p, m)]), depth=depth).extension_tokens()
        token = rng.choice([t for t in own if t != "base"] or own)
        if token not in snap.extension_tokens():
            raise RuntimeError(f"snapshot lattice lacks {token}")
        request(["--lattice-depth", str(depth), "phi", "--form", _sig(p, m), "--ext", token],
                0, pair=(tag, i))
        request(["--model", snap_path, "phi", "--form", _sig(p, m), "--ext", token,
                 "--route", "both"], 0, pair=(tag, i))

    p, m = sig()
    request(["phi", "--form", _sig(p, m), "--ext", "base", "--route", "both"],
            0, render(phi_affine_base(p, m)) + "\n")
    p, m = sig()
    request(["inverse-check", "--form", _sig(p, m)],
            0, f"pass: constant {render(inverse_constant(p + m))}\n")
    p, m = sig()
    request(["equiv", "--left", _sig(p, m), "--right", _sig(m, p)], 0, "equivalent\n")
    n = max(lo, 2) + tag % (hi - max(lo, 2) + 1)
    p = rng.randint(0, n // 2 - 1)
    request(["equiv", "--left", _sig(p, n - p), "--right", _sig(p + 1, n - p - 1)],
            1, "not equivalent\n")
    p, m = sig()
    k = 1 + tag % 2
    request(["relations", "--lhs", _sig(p, m), "--rhs", f"{_sig(p + k, m + k)};{_sig(k, k)}"],
            0, "fingerprints equal mod Tate: True\nTate-equivalent decompositions: True\n")
    r = 1 + tag % 3
    request(["basis", "--expr", f"det ({2 ** r},0)", "--maxr", "3"],
            0, first_line=f"r={r}: {pfister_det_coefficient(r)}")
    folds = rng.sample(range(4), 2 + tag % 3)
    request(["independent", "--forms", ";".join(_sig(0, 2 ** i) for i in folds)],
            0, order=[_sig(0, 2 ** i) for i in sorted(folds, reverse=True)])
    p, m = sig()
    request(["decompose", "--form", _sig(p, m)], 0, tates=2 * witt_index_base(p, m))
    forms = ";".join(_sig(*sig()) for _ in range(3))
    request(["--lattice-depth", str(depth), "validate", "--forms", forms], 0, "ok\n")

    return ops


def setup(seed: int, size: str, out_dir: str) -> State:
    cfg = SIZES[size]
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="models-", dir=out_dir)
    ops = []
    for top, depth in cfg["build_sizes"] * cfg["builds"]:
        sigs = tuple((p, n - p) for n in range(1, top + 1) for p in range(n + 1))
        ops.append(Op("build", (sigs, depth)))
    for _ in range(cfg["snapshots"]):
        ops.append(Op("snapshot", (_seeded_forms(rng, cfg["snap_dim"], cfg["snap_per_dim"]),
                                   cfg["snap_depth"])))
    fixture = qp.lattice_to_data(qp.real_lattice(
        _real(_seeded_forms(rng, cfg["fixture_dim"], 3)), depth=2))
    for family in FAMILIES:
        for _ in range(cfg["mutants_per_family"]):
            text = qp.serialize_model(mutate(fixture, rng, family))
            ops.append(Op("mutant", (text,), expect=family))
    sig = Balanced(rng, signatures(*cfg["cli_dims"]))
    for tag in range(cfg["cli_sets"]):
        ops.extend(_cli_ops(rng, sig, cfg, workdir, tag))
    for name, data in sorted(MALFORMED.items()):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        ops.append(Op("malformed", ("--model", path, "validate"), expect=(2, "")))
    rng.shuffle(ops)
    return State(workdir, ops)


def teardown(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def fresh(state: State):
    return None


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quadpic.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run(op: Op, ctx):
    kind = op.kind
    if kind == "build":
        sigs, depth = op.args
        lattice = qp.real_lattice(_real(sigs), depth=depth)
        report = lattice.validate()
        return (report.ok, [v.render() for v in report.violations][:3])
    if kind == "snapshot":
        sigs, depth = op.args
        real = qp.real_lattice(_real(sigs), depth=depth)
        data = qp.lattice_to_data(real)
        text = qp.serialize_model(data)
        parsed = qp.parse_model(text)
        declared = qp.declared_lattice_from_data(parsed, check=True)
        mismatches = []
        for key in real.form_keys():
            real_form, declared_form = real.form(key), declared.form(key)
            for token in real.extension_tokens():
                a = real.witt_index(real_form, token)
                b = declared.witt_index(declared_form, token)
                if a != b:
                    mismatches.append((key, token, a, b))
        return (parsed == data, mismatches, declared.extension_tokens() == real.extension_tokens())
    if kind == "mutant":
        try:
            qp.declared_lattice_from_data(qp.parse_model(op.args[0]), check=True)
        except qp.ModelError as exc:
            return ("rejected", str(exc))
        return ("accepted", "")
    if kind == "cli":
        return (_call_cli(op.args), _call_cli(op.args))
    if kind == "malformed":
        return _call_cli(op.args)
    raise ValueError(f"unknown op kind {kind}")


def _check_cli(op: Op, first, second) -> list[str]:
    code, stdout = op.expect
    problems = []
    if first[0] != code:
        problems.append(f"{' '.join(op.args)}: exit {first[0]}, want {code}; {first[2].strip()}")
    if first[1] != second[1] or first[0] != second[0]:
        problems.append(f"{' '.join(op.args)}: two identical calls differ")
    out = first[1]
    if stdout is not None and out != stdout:
        problems.append(f"{' '.join(op.args)}: printed {out!r}, want {stdout!r}")
    meta = op.meta
    if "first_line" in meta and out.splitlines()[:1] != [meta["first_line"]]:
        problems.append(f"{' '.join(op.args)}: printed {out!r}, want {meta['first_line']!r} first")
    if "order" in meta:
        got = [line.split("e[", 1)[1].split("]", 1)[0]
               for line in out.splitlines() if "eliminate e[" in line]
        if got != meta["order"]:
            problems.append(f"{' '.join(op.args)}: elimination order {got}, want {meta['order']}")
    if "tates" in meta:
        line = out.splitlines()[0] if out else ""
        count = 0 if line == "tates: none" else line.count("(")
        if not line.startswith("tates: ") or count != meta["tates"]:
            problems.append(f"{' '.join(op.args)}: {line!r}, want {meta['tates']} Tate summands")
    return problems


def check(op: Op, answer, ctx) -> list[str]:
    kind = op.kind
    if kind == "build":
        ok, violations = answer
        return [] if ok else [f"real lattice fails validate: {violations}"]
    if kind == "snapshot":
        same, mismatches, same_tokens = answer
        problems = []
        if not same:
            problems.append("parse_model(serialize_model(d)) != d")
        if mismatches or not same_tokens:
            problems.append(f"declared reload differs from the real lattice: {mismatches[:3]}")
        return problems
    if kind == "mutant":
        verdict, message = answer
        if verdict != "rejected" or f"[{op.expect}]" not in message:
            return [f"{op.expect} mutant: {verdict} {message[:200]!r}"]
        return []
    if kind == "cli":
        return _check_cli(op, *answer)
    if kind == "malformed":
        code, stdout, stderr = answer
        if code != 2 or stdout or len(stderr.strip().splitlines()) != 1:
            return [f"{op.args[1]}: exit {code}, stdout {stdout!r}, stderr {stderr!r}"]
        return []
    return [f"unknown op kind {kind}"]


def check_round(round_ops, answers, ctx) -> list[str]:
    """phi through --model must print what phi on the real backend prints."""
    outputs: dict[str, list] = {}
    for op, answer in zip(round_ops, answers):
        if answer is not None and "pair" in op.meta:
            outputs.setdefault(op.meta["pair"], []).append(answer[0][1])
    return [f"phi request pair {key}: real and --model print {outs}"
            for key, outs in sorted(outputs.items()) if len(outs) != 2 or outs[0] != outs[1]]
