"""Command-line front end: model ingestion, command dispatch, JSON output.

Form literals are signature pairs "(p,m)" for the real backend; with
--model they are declared form ids.  Exit codes: 0 for success or true
verdicts, 1 for false verdicts or reported property failures, 2 for
invalid input or a broken model.  Identical invocations produce
bit-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .decomp import declare_decompositions, registered_decomposition
from .errors import DisagreementError, ModelError, QuadPicError
from .fields import DEFAULT_DEPTH, declared_lattice_from_data, real_lattice
from .forms import ProjectiveQuadric, QuadraticForm, real_form_from_key
from .modelfile import parse_model
from .pic import (
    basis_real,
    det,
    generator_e,
    identity,
    independent,
    inverse_identity_check,
    motivically_equivalent,
    relations_check,
    tate_element,
)
from .tower import active_index, build_tower, twist_readoff
from .twists import TateTwist, phi_affine

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2


def _parse_form(literal: str, declared) -> QuadraticForm:
    """Signature literal on the real backend, a form id when --model is set."""
    literal = literal.strip()
    if declared is not None:
        return declared.form(literal)
    if literal.startswith("("):
        return real_form_from_key(literal)
    raise ModelError(f"declared form id {literal!r} needs --model")


def _parse_form_list(text: str, declared) -> list[QuadraticForm]:
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise ModelError("empty form list")
    return [_parse_form(p, declared) for p in parts]


def _read_model(args):
    """The declared lattice named by --model and its validation report; the
    --decomps, if any, are declared on a lattice that validates."""
    with open(args.model, "r", encoding="utf-8") as handle:
        model = declared_lattice_from_data(parse_model(handle.read()), check=False)
    report = model.validate()
    if report.ok and args.decomps is not None:
        with open(args.decomps, "r", encoding="utf-8") as handle:
            table = parse_model(handle.read())
        declare_decompositions(table, model)
    return model, report


def _load_declared(args):
    """The validated declared lattice named by --model (with --decomps applied), or None.

    A model that fails validation is refused with a one-line message naming
    the number of violations and the first of them.
    """
    if args.model is None:
        return None
    model, report = _read_model(args)
    violations = report.violations
    if violations:
        count = f"{len(violations)} violation{'s' if len(violations) != 1 else ''}"
        raise ModelError(
            f"declared model rejected: {count}; first: {violations[0].render()}"
        )
    return model


def _lattice_for(args, declared, forms):
    if declared is not None:
        return declared
    return real_lattice(forms, DEFAULT_DEPTH if args.lattice_depth is None else args.lattice_depth)


def _form_and_lattice(args):
    """The form named by args.form and the lattice to read it on: --model's,
    else a real lattice built for it; loaded, parsed and built in that order."""
    declared = _load_declared(args)
    q = _parse_form(args.form, declared)
    return q, _lattice_for(args, declared, [q])


def _refuse_unread_options(args) -> None:
    """Every command follows one rule: an option that it would not read is refused."""
    if args.model is None:
        if args.decomps is not None:
            raise ModelError("--decomps needs --model")
    elif args.command == "basis":
        raise ModelError("the Pfister basis exists over the real backend")
    elif args.lattice_depth is not None:
        raise ModelError("--lattice-depth does not apply with --model")
    elif args.command == "validate" and args.forms is not None:
        raise ModelError("validate --forms does not apply with --model")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


# ---------------------------------------------------------------- commands


def _cmd_phi(args) -> int:
    q, model = _form_and_lattice(args)
    values = {}
    if args.route in ("sum", "both"):
        values["sum"] = phi_affine(q, args.ext, model)
    if args.route in ("tower", "both"):
        tower = build_tower(q, model)
        slot = active_index(tower, args.ext, model)
        values["tower"] = twist_readoff(slot, q.dim, tower.prime_quadric_dim)
    if len(values) == 2 and values["sum"] != values["tower"]:
        raise DisagreementError(
            f"evaluation routes disagree for {q.key} at {args.ext}: "
            f"{values['sum'].render()} vs {values['tower'].render()}"
        )
    value = next(iter(values.values()))
    _emit(args, {"command": "phi", "form": q.key, "extension": args.ext,
                 "route": args.route, "value": value.to_json()}, value.render())
    return EXIT_OK


def _emit_element(args, name: str, element) -> None:
    """The element and its fingerprint, which is swept once for either output."""
    fp = element.fingerprint()
    tokens = sorted(fp)
    _emit(args, {"command": name, "element": element.to_json(),
                 "fingerprint": {t: fp[t].to_json() for t in tokens}},
          element.render() + "\n" + "; ".join(f"{t}: {fp[t].render()}" for t in tokens))


def _cmd_e(args) -> int:
    q, model = _form_and_lattice(args)
    _emit_element(args, "e", generator_e(q, model))
    return EXIT_OK


def _cmd_det(args) -> int:
    q, model = _form_and_lattice(args)
    flag = None
    if args.flag:
        flag = _parse_form_list(args.flag, None if args.model is None else model)
    _emit_element(args, "det", det(ProjectiveQuadric(q), model, flag=flag))
    return EXIT_OK


def _cmd_inverse_check(args) -> int:
    q, model = _form_and_lattice(args)
    report = inverse_identity_check(q, model)
    payload = {"command": "inverse-check", **report.to_json()}
    if report.ok:
        _emit(args, payload, f"pass: constant {report.expected.render()}")
        return EXIT_OK
    token, value = report.failures[0]
    _emit(args, payload, f"fail at {token}: {value.render()} != {report.expected.render()}")
    return EXIT_FALSE


def _cmd_independent(args) -> int:
    declared = _load_declared(args)
    forms = _parse_form_list(args.forms, declared)
    model = _lattice_for(args, declared, forms)
    result = independent(forms, model)
    payload = {"command": "independent", **result.to_json()}
    if result.independent:
        lines = ["independent"]
        for step in result.steps:
            lines.append(f"  eliminate e[{step.form}] via {step.witness}: {step.twist.render()}")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK
    lines = ["refused"] + [f"  {r}" for r in result.reasons]
    _emit(args, payload, "\n".join(lines))
    return EXIT_FALSE


def _cmd_equiv(args) -> int:
    declared = _load_declared(args)
    left = _parse_form(args.left, declared)
    right = _parse_form(args.right, declared)
    model = _lattice_for(args, declared, [left, right])
    verdict = motivically_equivalent(
        ProjectiveQuadric(left), ProjectiveQuadric(right), model
    )
    _emit(args, {"command": "equiv", "left": left.key, "right": right.key,
                 "equivalent": verdict}, "equivalent" if verdict else "not equivalent")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_decompose(args) -> int:
    q, model = _form_and_lattice(args)
    decomposition = registered_decomposition(ProjectiveQuadric(q), model)
    payload = {"command": "decompose", "quadric": decomposition.quadric,
               "decomposition": decomposition.to_json()}
    tates = ", ".join(t.render() for t in decomposition.tates) or "none"
    summands = ", ".join(
        f"{s.kind}@{s.shift} [{s.cls.render()}]" for s in decomposition.summands
    ) or "none"
    _emit(args, payload, f"tates: {tates}\nsummands: {summands}")
    return EXIT_OK


def _cmd_relations(args) -> int:
    declared = _load_declared(args)
    lhs = _parse_form_list(args.lhs, declared)
    rhs = _parse_form_list(args.rhs, declared)
    model = _lattice_for(args, declared, lhs + rhs)
    verdict = relations_check(
        [ProjectiveQuadric(q) for q in lhs],
        [ProjectiveQuadric(q) for q in rhs],
        model,
    )
    payload = {"command": "relations", **verdict.to_json()}
    human = (
        f"fingerprints equal mod Tate: {verdict.fingerprint_equal_mod_tate}\n"
        f"Tate-equivalent decompositions: {verdict.tate_equivalent}"
    )
    _emit(args, payload, human)
    return EXIT_OK if verdict.fingerprint_equal_mod_tate else EXIT_FALSE


_TATE_FACTOR = re.compile(r"T\s*\(\s*(-?\d+)\s*\)\s*\[\s*(-?\d+)\s*\]")

# the Picard element of each kind of parsed factor, over a lattice
_FACTOR_ELEMENTS = {
    "det": lambda q, model: det(ProjectiveQuadric(q), model),
    "e": generator_e,
    "T": lambda twist, model: tate_element(model, twist),
}


def _parse_expression(text: str) -> list[tuple[str, object, int]]:
    """(generator, real form or twist, power) for each det(p,m), e(p,m) or T(x)[y]
    factor of a product, read left to right, so an error names the leftmost defect."""
    factors = []
    for raw in text.split("*"):
        term = raw.strip()
        if not term:
            raise ModelError(f"empty factor in expression {text!r}")
        exponent = None
        if "^" in term:
            term, _, exponent = term.rpartition("^")
            term = term.strip()
        if term.startswith("det"):
            factor = ("det", real_form_from_key(term[3:].strip()))
        elif term.startswith("e"):
            factor = ("e", real_form_from_key(term[1:].strip()))
        elif term.startswith("T"):
            match = _TATE_FACTOR.fullmatch(term)
            if match is None:
                raise ModelError(f"cannot parse Tate factor {term!r}; expected T(x)[y]")
            factor = ("T", TateTwist(int(match.group(1)), int(match.group(2))))
        else:
            raise ModelError(f"cannot parse factor {raw.strip()!r}")
        factors.append((*factor, 1 if exponent is None else int(exponent)))
    return factors


def _cmd_basis(args) -> int:
    factors = _parse_expression(args.expr)
    model = _lattice_for(args, None, [value for gen, value, _ in factors if gen != "T"])
    element = identity(model)
    for gen, value, power in factors:
        element = element * _FACTOR_ELEMENTS[gen](value, model) ** power
    expansion = basis_real(element, args.maxr)
    payload = {"command": "basis", "expr": args.expr, "maxr": args.maxr,
               **expansion.to_json()}
    lines = [f"r={r}: {c}" for r, c in expansion.coords] or ["all coordinates zero"]
    lines.append(f"tate: {expansion.tate.render()}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.model is not None:
        report = _read_model(args)[1]
    else:
        forms = _parse_form_list(args.forms, None) if args.forms else []
        report = _lattice_for(args, None, forms).validate()
    payload = {"command": "validate", **report.to_json()}
    _emit(args, payload, report.render())
    return EXIT_OK if report.ok else EXIT_FALSE


# ------------------------------------------------------------------ parser


def _int(text: str) -> int | str:
    """int(text); "--" is returned unconverted, for main to refuse on every version."""
    if text == "--":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _depth(text: str) -> int | str:
    value = _int(text)
    if value != "--" and value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quadpic",
        description="Exact computation in the Picard subgroup generated by "
        "reduced motives of affine quadrics.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--lattice-depth", type=_depth, default=None,
                        help="generic-splitting tower depth for the real backend "
                        f"(default {DEFAULT_DEPTH})")
    parser.add_argument("--model", default=None,
                        help="declared model file (JSON)")
    parser.add_argument("--decomps", default=None,
                        help="declared decompositions file (JSON map form id -> decomposition)")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("phi", help="twist value of e^q at an extension")
    cmd.add_argument("--form", required=True)
    cmd.add_argument("--ext", default="base")
    cmd.add_argument("--route", choices=("sum", "tower", "both"), default="sum",
                     help="closed-form sum, projector-tower read-off, or both (cross-checked)")
    cmd.set_defaults(handler=_cmd_phi)

    cmd = sub.add_parser("e", help="the generator e^q and its fingerprint")
    cmd.add_argument("--form", required=True)
    cmd.set_defaults(handler=_cmd_e)

    cmd = sub.add_parser("det", help="det(Q) along a flag, with fingerprint")
    cmd.add_argument("--form", required=True, help="the form of the quadric")
    cmd.add_argument("--flag", default=None,
                     help="optional flag chain: subforms separated by ';'")
    cmd.set_defaults(handler=_cmd_det)

    cmd = sub.add_parser("inverse-check", help="verify e^q * e^q' = T(n)[2n+1]")
    cmd.add_argument("--form", required=True)
    cmd.set_defaults(handler=_cmd_inverse_check)

    cmd = sub.add_parser("independent", help="independence certificate or refusal")
    cmd.add_argument("--forms", required=True, help="forms separated by ';'")
    cmd.set_defaults(handler=_cmd_independent)

    cmd = sub.add_parser("equiv", help="motivic equivalence of two quadrics")
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)
    cmd.set_defaults(handler=_cmd_equiv)

    cmd = sub.add_parser("decompose", help="motivic decomposition of a quadric")
    cmd.add_argument("--form", required=True)
    cmd.set_defaults(handler=_cmd_decompose)

    cmd = sub.add_parser("relations", help="compare two det-products")
    cmd.add_argument("--lhs", required=True, help="quadric forms separated by ';'")
    cmd.add_argument("--rhs", required=True)
    cmd.set_defaults(handler=_cmd_relations)

    cmd = sub.add_parser("basis", help="expand an expression in the Pfister basis")
    cmd.add_argument("--expr", required=True,
                     help='e.g. "det (8,0)" or "e(0,3)^2 * det(4,0)"')
    cmd.add_argument("--maxr", type=_int, required=True)
    cmd.set_defaults(handler=_cmd_basis)

    cmd = sub.add_parser("validate", help="check the model invariant families")
    cmd.add_argument("--forms", default=None, help="real forms separated by ';'")
    cmd.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads "--opt=--" as an empty list before Python 3.13 and as
        # "--" from 3.13 on (the int converters pass it through); both are
        # refused, so no version takes a value "--"
        if isinstance(value, list) or value == "--":
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        _refuse_unread_options(args)
        return args.handler(args)
    except (QuadPicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
