"""queries: a seeded stream of Picard-group queries against one shared lattice.

Set-up builds one real lattice.  A round holds a fixed number of each query
kind with seeded arguments: relations_check on det-product pairs (half of
them Tate-shuffled rewrites), motivically_equivalent on quadric pairs, det
along random flags compared by equality, basis_real expansions of Pfister
determinants, and independence certificates.  The queries grow the lattice
as they go (splitting towers, witness extensions); each round starts again
from the lattice the set-up built.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

import quadpic as qp

from oracle import Balanced, Op, pfister_det_coefficient, same_up_to_sign, signatures

SIZES = {
    "full": {"lattice_dim": 12, "depth": 3, "quadric_dims": (2, 8),
             "rel": 96, "equiv": 64, "detflag": 64, "flags": 2,
             "basis": 16, "maxr": 4, "indep": 16, "indep_folds": 5},
    "tiny": {"lattice_dim": 5, "depth": 1, "quadric_dims": (2, 4),
             "rel": 2, "equiv": 4, "detflag": 1, "flags": 1,
             "basis": 1, "maxr": 2, "indep": 1, "indep_folds": 3},
}


@dataclass
class State:
    lattice: object
    ops: list


def _tate_shuffle(rng, quadrics, i: int) -> tuple:
    """Add hyperbolic planes and split quadrics: only Tate summands change.

    How many planes go where is fixed by the op's position i, so the sizes
    do not depend on the seed; the seed only shuffles the order.
    """
    out = [(p + (i + j) % 3, m + (i + j) % 3) for j, (p, m) in enumerate(quadrics)]
    out.extend((k, k) for k in range(1, 1 + i // 2 % 3))
    rng.shuffle(out)
    return tuple(out)


def _random_flag(rng, p: int, m: int) -> tuple:
    chain = []
    while p + m > 1:
        if m == 0 or (p > 0 and rng.random() < 0.5):
            p -= 1
        else:
            m -= 1
        chain.append((p, m))
    return tuple(chain)


def _equiv_pair(rng, signature, kind: int) -> tuple:
    p, m = signature()
    n = p + m
    if kind == 0:  # the same quadric with the sign flipped
        return (p, n - p), (n - p, p)
    if kind == 1:  # same dimension, another signature
        other = rng.choice([x for x in range(n + 1) if x not in (p, n - p)] or [p])
        return (p, n - p), (other, n - other)
    return (p, n - p), signature()


class Dimensions:
    """A fixed cyclic walk over the dimensions lo..hi, with a seeded signature
    for each step.

    The walk steps by 3 (by 1 when 3 divides the number of dimensions), so
    the ops of a round get the same dimensions, in the same places, whatever
    the seed.  The seed picks each quadric's signature among those of its
    dimension, in shuffled passes, so each is used about equally often.
    """

    def __init__(self, rng, lo: int, hi: int, canonical: bool):
        self.lo, self.count = lo, hi - lo + 1
        self.stride = 3 if self.count % 3 else 1
        self.step = 0
        self.by_dim = {n: Balanced(rng, signatures(n, n, canonical)) for n in range(lo, hi + 1)}

    def __call__(self) -> tuple[int, int]:
        n = self.lo + self.step * self.stride % self.count
        self.step += 1
        return self.by_dim[n]()

    def many(self, count: int) -> tuple:
        return tuple(self() for _ in range(count))


def setup(seed: int, size: str, out_dir: str) -> State:
    cfg = SIZES[size]
    rng = random.Random(seed)
    lo, hi = cfg["quadric_dims"]
    quadric = Dimensions(rng, lo, hi, canonical=True)
    signature = Balanced(rng, signatures(lo, hi))
    forms = [qp.QuadraticForm.real(p, n - p)
             for n in range(2, cfg["lattice_dim"] + 1) for p in range((n + 1) // 2, n + 1)]
    lattice = qp.real_lattice(forms, depth=cfg["depth"])
    ops = []
    for i in range(cfg["rel"]):
        lhs = quadric.many(1 + i // 2 % 3)
        shuffled = i % 2 == 0
        rhs = _tate_shuffle(rng, lhs, i) if shuffled else quadric.many(1 + i % 3)
        ops.append(Op("relations", (lhs, rhs), expect=True if shuffled else None))
    for i in range(cfg["equiv"]):
        a, b = _equiv_pair(rng, signature, i % 4 if i % 4 < 2 else 2)
        ops.append(Op("equiv", (a, b), expect=same_up_to_sign(a, b)))
    flagged = Dimensions(rng, 3, hi + 2, canonical=False)
    for _ in range(cfg["detflag"]):
        p, m = flagged()
        flags = tuple(_random_flag(rng, p, m) for _ in range(cfg["flags"]))
        ops.append(Op("detflag", ((p, m), flags)))
    for i in range(cfg["basis"]):
        r = 1 + i % cfg["maxr"]
        ops.append(Op("basis", (r, rng.randint(r, cfg["maxr"])),
                      expect=((r, pfister_det_coefficient(r)),)))
    for _ in range(cfg["indep"]):
        folds = rng.sample(range(cfg["indep_folds"]), rng.randint(2, min(4, cfg["indep_folds"])))
        family = tuple((0, 2 ** i) for i in folds)
        descending = tuple(f"(0,{2 ** i})" for i in sorted(folds, reverse=True))
        ops.append(Op("independent", family, expect=descending))
    rng.shuffle(ops)
    return State(lattice, ops)


def teardown(state: State) -> None:
    pass


def fresh(state: State):
    return copy.deepcopy(state.lattice)


def _quadric(sig) -> object:
    return qp.ProjectiveQuadric(qp.QuadraticForm.real(*sig))


def run(op: Op, lattice):
    kind = op.kind
    try:
        if kind == "relations":
            lhs, rhs = op.args
            verdict = qp.relations_check([_quadric(s) for s in lhs],
                                         [_quadric(s) for s in rhs], lattice)
            return (verdict.fingerprint_equal_mod_tate, verdict.tate_equivalent)
        if kind == "equiv":
            a, b = op.args
            return qp.motivically_equivalent(_quadric(a), _quadric(b), lattice)
        if kind == "detflag":
            sig, flags = op.args
            reference = qp.det(_quadric(sig), lattice)
            out = []
            for chain in flags:
                flag = [qp.QuadraticForm.real(*s) for s in chain]
                verdict = reference.equality(qp.det(_quadric(sig), lattice, flag=flag))
                out.append((verdict.equal, verdict.exact))
            return tuple(out)
        if kind == "basis":
            r, maxr = op.args
            element = qp.det(qp.ProjectiveQuadric(qp.pfister_real(r)), lattice)
            return qp.basis_real(element, maxr).coords
        if kind == "independent":
            forms = [qp.QuadraticForm.real(*s) for s in op.args]
            result = qp.independent(forms, lattice)
            return (result.independent, tuple(getattr(result, "order", ())))
    except qp.DisagreementError as exc:
        return ("disagreement", str(exc))
    raise ValueError(f"unknown op kind {kind}")


def check(op: Op, answer, lattice) -> list[str]:
    if isinstance(answer, tuple) and answer[:1] == ("disagreement",):
        return [f"{op.args}: {answer[1]}"]
    kind = op.kind
    if kind == "relations":
        if op.expect and answer != (True, True):
            return [f"Tate-shuffled pair {op.args} judged {answer}"]
        return []
    if kind == "equiv":
        if answer is not op.expect:
            return [f"{op.args}: equivalent={answer}, signatures say {op.expect}"]
        return []
    if kind == "detflag":
        if len(answer) != len(op.args[1]) or not all(e and x for e, x in answer):
            return [f"det{op.args[0]} differs along a flag: {answer}"]
        return []
    if kind == "basis":
        if tuple(answer) != op.expect:
            return [f"det of the {op.args[0]}-fold Pfister quadric expands as {answer}"]
        return []
    if kind == "independent":
        if answer != (True, op.expect):
            return [f"{op.args}: {answer}, want certified in order {op.expect}"]
        return []
    return [f"unknown op kind {kind}"]


def check_round(round_ops, answers, lattice) -> list[str]:
    return []
