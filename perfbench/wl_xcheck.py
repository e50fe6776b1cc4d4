"""xcheck: both twist routes of e^q at every extension of one shared lattice.

Set-up builds the joint generic-splitting lattice of every real signature up
to a fixed dimension.  A round draws, for every dimension, a seeded sample of
signatures; each op takes one form through the projector-tower read-off
(active_index over has_rational_point) and through phi_affine at every
extension, and runs inverse_identity_check on it.  The lattice is never
written after set-up, so the time goes to the Witt oracle, tower and twists.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

import quadpic as qp

from oracle import Op, inverse_constant, pair, phi_affine_base

SIZES = {
    "full": {"max_dim": 16, "depth": 2, "per_dim": 9},
    "tiny": {"max_dim": 5, "depth": 2, "per_dim": 2},
}


@dataclass
class State:
    lattice: object
    tokens: tuple
    base: str
    ops: list


@dataclass
class Ctx:
    lattice: object
    tokens: tuple
    base: str


def setup(seed: int, size: str, out_dir: str) -> State:
    cfg = SIZES[size]
    rng = random.Random(seed)
    top = cfg["max_dim"]
    forms = [qp.QuadraticForm.real(p, n - p) for n in range(1, top + 1) for p in range(n + 1)]
    lattice = qp.real_lattice(forms, depth=cfg["depth"])
    ops = []
    for n in range(1, top + 1):
        for p in sorted(rng.sample(range(n + 1), min(cfg["per_dim"], n + 1))):
            ops.append(Op("xcheck", (p, n - p)))
    rng.shuffle(ops)
    return State(lattice, tuple(lattice.extension_tokens()), lattice.base, ops)


def teardown(state: State) -> None:
    pass


def fresh(state: State) -> Ctx:
    return Ctx(copy.deepcopy(state.lattice), state.tokens, state.base)


def run(op: Op, ctx: Ctx):
    lattice = ctx.lattice
    q = qp.QuadraticForm.real(*op.args)
    tower = qp.build_tower(q)
    rows = []
    for token in lattice.extension_tokens():
        slot = qp.active_index(tower, token, lattice)
        readoff = qp.twist_readoff(slot, q.dim, tower.prime_quadric_dim)
        rows.append((token, pair(readoff), pair(qp.phi_affine(q, token, lattice))))
    report = qp.inverse_identity_check(q, lattice)
    inverse = (report.form, pair(report.expected),
               tuple((token, pair(value)) for token, value in report.failures))
    return rows, inverse


def check(op: Op, answer, ctx: Ctx) -> list[str]:
    p, m = op.args
    rows, (form, expected, failures) = answer
    problems = []
    if tuple(row[0] for row in rows) != ctx.tokens:
        problems.append(f"({p},{m}): evaluated {len(rows)} extensions, "
                        f"lattice has {len(ctx.tokens)}")
    for token, readoff, value in rows:
        if readoff != value:
            problems.append(f"({p},{m}) at {token}: tower {readoff} vs sum {value}")
        if token == ctx.base and value != phi_affine_base(p, m):
            problems.append(f"({p},{m}) at the base: {value}, "
                            f"Sylvester's law gives {phi_affine_base(p, m)}")
    if form != f"({p},{m})" or expected != inverse_constant(p + m) or failures:
        problems.append(f"({p},{m}): inverse law report {form} {expected} {failures[:2]}")
    return problems


def check_round(round_ops, answers, ctx: Ctx) -> list[str]:
    checked = sum(len(a[0]) for a in answers if a is not None)
    want = len(round_ops) * len(ctx.tokens)
    if checked != want:
        return [f"{checked} (form, extension) checks, want {want}"]
    return []
