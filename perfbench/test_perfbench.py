"""Self-tests of the benchmark: tiny runs, checkers that catch wrong answers,
and a trace that repeats exactly.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import quadpic as qp  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import wl_models  # noqa: E402
import wl_queries  # noqa: E402
import wl_xcheck  # noqa: E402

OUT = os.path.join(BENCH, "out")


def bench(*args, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- tiny runs


@pytest.mark.parametrize("workload", ["xcheck", "queries", "models"])
def test_tiny_run_has_no_failures_but_the_known_three(workload):
    res = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "0",
                          "--trace", "0", "--size", "tiny"))
    assert res["correct"] is True
    assert set(res["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                   "latency_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    with open(os.path.join(OUT, f"result-{workload}-seed7-trace0.json")) as handle:
        failures = json.load(handle)["failures"]
    if workload == "models":
        assert res["failed"] == 3
        assert sorted(k.split(":")[0] for k in failures) == ["malformed"] * 3
    else:
        assert res["failed"] == 0 and not failures


@pytest.mark.parametrize("workload", ["xcheck", "queries", "models"])
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", "1", "--size", "tiny")) for _ in range(2)]
    assert set(runs[0]["metrics"]) == set(tracing.METRICS)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["metrics"]["fields.witt_calls"]["value"] > 0


def test_refuses_without_the_engine_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "xcheck", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------ the tracer


def test_absent_targets_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.func", "quadpic.fields", "no_such_function", "func"),
        ("gone.method", "quadpic.fields", "no_such_method", "method"),
        ("gone.module", "quadpic.no_such_module", "anything", "func"),
    ))
    original = qp.phi_affine
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qp.phi_affine is not original
        assert tracer.absent == ["quadpic.fields.no_such_function",
                                 "quadpic.fields.no_such_method",
                                 "quadpic.no_such_module.anything"]
    finally:
        tracer.uninstall()
    assert qp.phi_affine is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lattice = qp.real_lattice([qp.QuadraticForm.real(3, 0)], depth=1)
        tracer.enabled = True
        qp.phi_affine(qp.QuadraticForm.real(2, 0), "base/(3,0)", lattice)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.calls["twists.phi_affine"] == 1
    assert tracer.calls["fields.witt"] == 2
    # over base/(3,0) (level 2): j = 0 for (2,0) and j = 1 for its prime (1,2)
    assert tracer.counts["split_sum_terms"] == 1
    span = {s[0]: s for s in tracer.spans}
    inclusive = span["twists.phi_affine"][5] - span["twists.phi_affine"][4]
    assert 0 < tracer.self_s["twists.phi_affine"] < inclusive


# ------------------------------------------------------ independent answers


def test_closed_form_matches_the_defining_sum():
    for m in range(0, 12):
        for j in range(0, m // 2 + 2):
            direct = (sum(m - 2 * l for l in range(j)),
                      sum(2 * m - 4 * l + 1 for l in range(j)))
            assert oracle.split_sum(m, j) == direct


def test_base_values_match_hand_computations():
    assert oracle.phi_affine_base(0, 5) == (0, 0)  # "quadpic phi --form (0,5)" in the README
    # (1,1): i_W = 1 and q' = (2,1) has i_W = 1, so S(1,1) - S(0,1) = (1)[3] - (0)[1]
    assert oracle.phi_affine_base(1, 1) == (1, 2)
    assert oracle.inverse_constant(2) == (2, 5)


def test_balanced_draws_use_every_value_equally():
    import random

    draw = oracle.Balanced(random.Random(5), range(2, 7))
    values = sorted(draw() for _ in range(10))
    assert values == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    assert oracle.signatures(2, 3, canonical=True) == [(1, 1), (2, 0), (2, 1), (3, 0)]


def test_query_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        state = wl_queries.setup(seed, "tiny", OUT)
        return sorted((op.kind, tuple(sorted(p + m for p, m in op.args[0] + op.args[1])))
                      for op in state.ops if op.kind == "relations")

    assert sizes(1) == sizes(2)
    first, second = (wl_queries.setup(seed, "full", OUT) for seed in (1, 2))
    assert [op.args for op in first.ops] != [op.args for op in second.ops]


def test_round_times_are_scaled_by_the_machine_factor(monkeypatch):
    import types

    import run

    assert 0 < run.machine_scale() < 100
    factors = iter([2.0, 4.5])
    monkeypatch.setattr(run, "machine_scale", lambda: next(factors))
    sleeper = types.SimpleNamespace(
        fresh=lambda state: None,
        run=lambda op, ctx: time.sleep(0.01),
        check=lambda op, answer, ctx: [],
        check_round=lambda ops, answers, ctx: [],
    )
    bench_run = run.Run(sleeper, types.SimpleNamespace(ops=[oracle.Op("sleep")] * 3))
    bench_run.round(scaled=True)  # 30 ms of ops: one probe before, one after
    assert bench_run.scales == [3.0]
    assert all(0.03 <= t < 1.0 for t in bench_run.latencies)


# -------------------------------------------- checkers reject wrong answers


def _first(state, kind=None):
    return next(op for op in state.ops if kind is None or op.kind == kind)


def test_xcheck_checker_catches_perturbed_twists():
    state = wl_xcheck.setup(2, "tiny", OUT)
    ctx = wl_xcheck.fresh(state)
    op = _first(state)
    rows, inverse = wl_xcheck.run(op, ctx)
    assert wl_xcheck.check(op, (rows, inverse), ctx) == []

    def bumped(i, col):
        row = list(rows[i])
        row[col] = (row[col][0], row[col][1] + 1)  # off by (0)[1]
        return rows[:i] + [tuple(row)] + rows[i + 1:]

    base = [r[0] for r in rows].index(ctx.base)
    other = next(i for i, r in enumerate(rows) if r[0] != ctx.base)
    assert wl_xcheck.check(op, (bumped(other, 2), inverse), ctx)
    assert wl_xcheck.check(op, (bumped(other, 1), inverse), ctx)
    # both routes moved together at the base: only Sylvester's law catches it
    both = [tuple(r) for r in bumped(base, 1)]
    both[base] = (both[base][0], both[base][1], both[base][1])
    assert wl_xcheck.check(op, (both, inverse), ctx)
    form, expected, _ = inverse
    assert wl_xcheck.check(op, (rows, (form, (expected[0], expected[1] + 1), ())), ctx)
    assert wl_xcheck.check(op, (rows, (form, expected, (("base", (0, 0)),))), ctx)
    assert wl_xcheck.check(op, (rows[:-1], inverse), ctx)
    assert wl_xcheck.check_round([op], [(rows[:-1], inverse)], ctx)


def test_queries_checker_catches_flipped_verdicts():
    state = wl_queries.setup(2, "tiny", OUT)
    lattice = wl_queries.fresh(state)
    for kind in ("relations", "equiv", "detflag", "basis", "independent"):
        op = _first(state, kind)
        answer = wl_queries.run(op, lattice)
        assert wl_queries.check(op, answer, lattice) == [], kind
        assert wl_queries.check(op, ("disagreement", "x"), lattice), kind
    equiv = _first(state, "equiv")
    assert wl_queries.check(equiv, not equiv.expect, lattice)
    shuffled = next(op for op in state.ops if op.kind == "relations" and op.expect)
    assert wl_queries.check(shuffled, (False, False), lattice)
    detflag = _first(state, "detflag")
    assert wl_queries.check(detflag, ((False, True),) * len(detflag.args[1]), lattice)
    basis = _first(state, "basis")
    r, coeff = basis.expect[0]
    assert wl_queries.check(basis, ((r, coeff + 1),), lattice)
    indep = _first(state, "independent")
    assert wl_queries.check(indep, (True, tuple(reversed(indep.expect))), lattice)
    assert wl_queries.check(indep, (False, ()), lattice)


def test_models_checker_catches_wrong_answers():
    state = wl_models.setup(2, "tiny", OUT)
    try:
        answers = {}
        for op in state.ops:
            if op.kind == "malformed":
                continue
            answer = wl_models.run(op, None)
            assert wl_models.check(op, answer, None) == [], op
            answers.setdefault(op.kind, (op, answer))
        op, (ok, _) = answers["build"]
        assert wl_models.check(op, (False, ["[ceiling] x"]), None)
        op, (same, mismatches, tokens) = answers["snapshot"]
        assert wl_models.check(op, (False, mismatches, tokens), None)
        assert wl_models.check(op, (same, [("(1,0)", "base", 0, 1)], tokens), None)
        op, (verdict, message) = answers["mutant"]
        assert wl_models.check(op, ("accepted", ""), None)
        other = next(f for f in wl_models.FAMILIES if f != op.expect)
        assert wl_models.check(op, ("rejected", f"[{other}] form x"), None)
        op, (first, second) = answers["cli"]
        code, out, err = first
        assert wl_models.check(op, ((code + 1, out, err), second), None)
        assert wl_models.check(op, (first, (code, out + " ", err)), None)
        expected = next(o for o in state.ops if o.kind == "cli" and o.expect[1])
        code, out, err = wl_models.run(expected, None)[0]
        assert wl_models.check(expected, ((code, "x" + out, err),) * 2, None)
        malformed = _first(state, "malformed")
        assert wl_models.check(malformed, (0, "ok\n", ""), None)
        assert wl_models.check(malformed, (2, "", "error: a\nb\n"), None)
        assert wl_models.check(malformed, (2, "", "error: bad model\n"), None) == []
        pairs = [o for o in state.ops if "pair" in o.meta]
        real = wl_models.run(pairs[0], None)
        wrong = ((0, "(9)[9]\n", ""), (0, "(9)[9]\n", ""))
        twin = next(o for o in pairs[1:] if o.meta["pair"] == pairs[0].meta["pair"])
        assert wl_models.check_round([pairs[0], twin], [real, real], None) == []
        assert wl_models.check_round([pairs[0], twin], [real, wrong], None)
    finally:
        wl_models.teardown(state)


def test_every_mutant_family_is_reachable():
    import random

    data = qp.lattice_to_data(qp.real_lattice(
        [qp.QuadraticForm.real(p, n - p) for n in range(1, 5) for p in range(n + 1)], depth=1))
    for family in wl_models.FAMILIES:
        mutant = wl_models.mutate(data, random.Random(1), family)
        report = qp.declared_lattice_from_data(mutant, check=False).validate()
        assert family in {v.family for v in report.violations}
    assert qp.declared_lattice_from_data(data).validate().ok
