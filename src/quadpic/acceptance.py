"""Acceptance checks for the engine, one function per criterion.

Each check returns a CriterionResult; the required tolerances are exact
integer equalities with zero exceptions.  Every criterion runs at one
fixed size; criteria 5 and 9 take the seed of their random draws.
tests/test_acceptance.py asserts them under pytest and
scripts/run_acceptance.py runs them standalone, printing one pass/fail line
per criterion.
"""

from __future__ import annotations

import copy
import random
from typing import NamedTuple

from .errors import DisagreementError, ModelError
from .fields import declared_lattice_from_data, parse_construction, real_lattice
from .forms import ProjectiveQuadric, QuadraticForm, prime
from .modelfile import lattice_to_data
from .pic import (
    all_flags,
    basis_real,
    det,
    independent,
    inverse_identity_check,
    motivically_equivalent,
    relations_check,
)
from .tower import active_index, build_tower, twist_readoff
from .twists import phi_affine, phi_det

DEFAULT_SEED = 20260810


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.title} ({self.detail})"


# the title of each criterion, by number
TITLES = {
    1: "two-oracle agreement",
    2: "inverse law",
    3: "flag independence",
    4: "det telescoping",
    5: "relations cross-check",
    6: "real Pfister basis",
    7: "independence certificates",
    8: "motivic equivalence criterion",
    9: "model validation",
}


def _result(number: int, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, TITLES[number], passed, detail)


def real_forms(max_dim: int) -> list[QuadraticForm]:
    """Every real signature with 1 <= dim <= max_dim."""
    return [
        QuadraticForm.real(p, n - p)
        for n in range(1, max_dim + 1)
        for p in range(n + 1)
    ]


def canonical_quadric_forms(max_quadric_dim: int) -> list[QuadraticForm]:
    """One sign-canonical form per real quadric of dimension <= max."""
    out = []
    for n in range(2, max_quadric_dim + 3):
        for p in range((n + 1) // 2, n + 1):
            out.append(QuadraticForm.real(p, n - p))
    return out


def criterion_1() -> CriterionResult:
    """Two-oracle agreement: tower read-off equals the closed-form twist."""
    forms = real_forms(12)
    model = real_lattice(forms, depth=3)
    checks = 0
    for q in forms:
        tower = build_tower(q)
        for token in model.extension_tokens():
            got = twist_readoff(
                active_index(tower, token, model), q.dim, tower.prime_quadric_dim
            )
            want = phi_affine(q, token, model)
            if got != want:
                return _result(
                    1, False,
                    f"{q.key} at {token}: tower {got.render()} vs sum {want.render()}",
                )
            checks += 1
    return _result(
        1, True,
        f"{len(forms)} forms x {len(model.extension_tokens())} extensions, {checks} exact matches",
    )


def criterion_2() -> CriterionResult:
    """Inverse law: e^q * e^(q') is the constant (n)[2n+1]."""
    forms = real_forms(12)
    model = real_lattice(forms, depth=3)
    for q in forms:
        report = inverse_identity_check(q, model)
        if not report.ok:
            token, value = report.failures[0]
            return _result(
                2, False,
                f"{q.key} at {token}: {value.render()} != {report.expected.render()}",
            )
    return _result(
        2, True,
        f"{len(forms)} forms constant over {len(model.extension_tokens())} extensions",
    )


def criterion_3() -> CriterionResult:
    """Flag independence: every signature-decrement flag gives the same element."""
    forms = canonical_quadric_forms(8)
    model = real_lattice(forms, depth=1)
    flags_checked = 0
    for q in forms:
        quadric = ProjectiveQuadric(q)
        reference = det(quadric, model)
        flipped = det(ProjectiveQuadric(q.negated()), model)
        verdict = reference.equality(flipped)
        if not (verdict.equal and verdict.exact):
            return _result(3, False, f"{q.key}: the two quadric orientations disagree")
        for flag in all_flags(q):
            other = det(quadric, model, flag=flag)
            verdict = reference.equality(other)
            if not (verdict.equal and verdict.exact):
                return _result(3, False, f"{q.key} flag {[f.key for f in flag]}: {verdict.reason}")
            flags_checked += 1
    return _result(3, True, f"{len(forms)} quadrics, {flags_checked} flags, all elements identical")


def criterion_4() -> CriterionResult:
    """Telescoping: fingerprint(det(Q)) pointwise equals phi_det(Q, -)."""
    forms = canonical_quadric_forms(10)
    model = real_lattice(forms, depth=3)
    checks = 0
    for q in forms:
        quadric = ProjectiveQuadric(q)
        element = det(quadric, model)
        for token in model.extension_tokens():
            if element.value_at(token) != phi_det(quadric, token, model):
                return _result(4, False, f"{q.key} at {token}")
            checks += 1
    return _result(
        4, True,
        f"{len(forms)} quadrics x {len(model.extension_tokens())} extensions, {checks} matches",
    )


def _random_quadrics(rng: random.Random) -> list[ProjectiveQuadric]:
    out = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, 8)
        p = rng.randint(0, n)
        out.append(ProjectiveQuadric(QuadraticForm.real(max(p, n - p), min(p, n - p))))
    return out


def _tate_shuffle(rng: random.Random, quadrics) -> list[ProjectiveQuadric]:
    """A det-product rewriting that preserves Tate-equivalence of the sides."""
    out = []
    for quad in quadrics:
        f = quad.canonical_form
        k = rng.randint(0, 2)
        out.append(ProjectiveQuadric(QuadraticForm.real(f.pos + k, f.neg + k)))
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, 3)
        out.append(ProjectiveQuadric(QuadraticForm.real(k, k)))
    rng.shuffle(out)
    return out


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Relation criteria agree on seeded random det-product pairs."""
    rng = random.Random(seed)
    model = real_lattice(canonical_quadric_forms(10), depth=1)
    equivalent_pairs = 0
    for i in range(200):
        lhs = _random_quadrics(rng)
        if rng.random() < 0.5:
            rhs = _tate_shuffle(rng, lhs)
            expect_equal = True
        else:
            rhs = _random_quadrics(rng)
            expect_equal = None
        try:
            verdict = relations_check(lhs, rhs, model)
        except DisagreementError as exc:
            return _result(5, False, f"pair {i}: {exc}")
        if expect_equal and not verdict.fingerprint_equal_mod_tate:
            return _result(5, False, f"pair {i}: Tate-equivalent rewriting judged unequal")
        if verdict.fingerprint_equal_mod_tate:
            equivalent_pairs += 1
    return _result(
        5, True,
        f"200 seeded pairs, zero disagreements, {equivalent_pairs} equal mod Tate",
    )


def criterion_6() -> CriterionResult:
    """Every det of an anisotropic real quadric expands in the Pfister basis."""
    forms = [QuadraticForm.real(d, 0) for d in range(1, 17)]
    forms += [QuadraticForm.real(0, d) for d in range(1, 17)]
    model = real_lattice(forms, depth=1)
    expansions = 0
    for q in forms:
        element = det(ProjectiveQuadric(q), model)
        try:
            expansion = basis_real(element, 4)
        except (ModelError, DisagreementError) as exc:
            return _result(6, False, f"{q.key}: {exc}")
        expansions += 1
        r = q.dim.bit_length() - 1
        if q.dim == 2**r and q.pos == q.dim:
            want = -(2 ** (r - 1)) if r >= 1 else 0
            if expansion.coefficient(r) != want or len(expansion.coords) > (1 if r else 0):
                return _result(6, False, f"det of the {r}-fold Pfister quadric: {expansion.coords}")
    return _result(6, True, f"{expansions} determinants expanded and fingerprint-verified exactly")


def criterion_7() -> CriterionResult:
    """Independence certificate for primes (2,0),(3,0),(5,0),(9,0); refusal for {q, q+H}."""
    family = [
        QuadraticForm.real(0, 1),
        QuadraticForm.real(0, 2),
        QuadraticForm.real(0, 4),
        QuadraticForm.real(0, 8),
    ]
    model = real_lattice(family, depth=1)
    expected_primes = ["(2,0)", "(3,0)", "(5,0)", "(9,0)"]
    if [prime(q).key for q in family] != expected_primes:
        return _result(7, False, "bad family setup")
    cert = independent(family, model)
    if not cert.independent:
        return _result(7, False, "family refused")
    if cert.order != ("(0,8)", "(0,4)", "(0,2)", "(0,1)"):
        return _result(7, False, f"elimination order {cert.order}")
    if not all(step.twist for step in cert.steps):
        return _result(7, False, "a witness twist vanished")
    q = QuadraticForm.real(0, 2)
    q_plus_h = QuadraticForm.real(1, 3)
    refusal = independent([q, q_plus_h], model)
    if refusal.independent or (q.key, q_plus_h.key) not in refusal.pairs:
        return _result(
            7, False,
            "degenerate family not refused with the stably-birational pair named",
        )
    return _result(
        7, True,
        "certified in descending Pfister order with nonzero witnesses; degenerate family refused",
    )


def criterion_8() -> CriterionResult:
    """Motivic equivalence: Witt-profile and det-equality verdicts coincide."""
    forms = canonical_quadric_forms(8)
    model = real_lattice(forms, depth=3)
    quadrics = [ProjectiveQuadric(q) for q in forms]
    pairs = equal = 0
    for i, p in enumerate(quadrics):
        for q in quadrics[i:]:
            try:
                if motivically_equivalent(p, q, model):
                    equal += 1
            except DisagreementError as exc:
                return _result(8, False, f"{p.key} vs {q.key}: {exc}")
            pairs += 1
    return _result(8, True, f"{pairs} pairs, verdicts identical on each ({equal} equivalent)")


def _mutate(data: dict, rng: random.Random, family: str) -> dict:
    """One declared-table mutation guaranteed to violate the given family."""
    d = copy.deepcopy(data)
    witt = sorted(d["witt"], key=lambda w: (w["form"], w["extension"]))
    d["witt"] = witt
    index = {(w["form"], w["extension"]): w for w in witt}
    forms = {f["id"]: f for f in sorted(d["forms"], key=lambda f: f["id"])}
    extensions = sorted(d["extensions"], key=lambda e: e["id"])
    if family == "ceiling":
        entry = rng.choice(witt)
        entry["index"] = forms[entry["form"]]["dim"] // 2 + 1
        return d
    if family == "monotonicity":
        children = [e for e in extensions if e.get("parent")]
        candidates = [
            (e, f)
            for e in children
            for f in sorted(forms)
            if index[(f, e["parent"])]["index"] > 0
        ]
        e, f = rng.choice(candidates)
        index[(f, e["id"])]["index"] = index[(f, e["parent"])]["index"] - 1
        return d
    if family == "step":
        linked = [f for f in forms.values() if f.get("prime")]
        f = rng.choice(linked)
        e = rng.choice(extensions)["id"]
        index[(f["prime"], e)]["index"] = index[(f["id"], e)]["index"] + 2
        return d
    if family == "self-isotropy":
        built = [(e["id"], parse_construction(e["construction"])) for e in extensions]
        candidates = [
            (token, c.form) for token, c in built
            if c.kind == "ff" and forms.get(c.form, {}).get("dim", 0) >= 2
        ]
        token, form = rng.choice(candidates)
        index[(form, token)]["index"] = 0
        return d
    raise ValueError(family)


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Real lattice passes validation; seeded declared mutants are all caught."""
    big = real_lattice(real_forms(16), depth=4)
    report = big.validate()
    if not report.ok:
        return _result(9, False, f"real backend violation: {report.violations[0].render()}")
    fixture = lattice_to_data(real_lattice(real_forms(6), depth=2))
    rng = random.Random(seed)
    families = ["ceiling", "monotonicity", "step", "self-isotropy"]
    for i in range(100):
        family = families[i % len(families)]
        model = declared_lattice_from_data(_mutate(fixture, rng, family), check=False)
        if model.validate().ok:
            return _result(9, False, f"mutant {i} ({family}) accepted by validate")
    return _result(
        9, True,
        f"real lattice (dim<=16, depth 4, {len(big.extension_tokens())} extensions) clean; "
        "100 mutants caught",
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)
