"""Acceptance suite: one test per criterion, each printing its verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines,
or `python scripts/run_acceptance.py` for the standalone driver.
"""

import pytest

from quadpic import acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_two_oracle_agreement():
    _check(acceptance.criterion_1())


def test_criterion_2_inverse_law():
    _check(acceptance.criterion_2())


def test_criterion_3_flag_independence():
    _check(acceptance.criterion_3())


def test_criterion_4_det_telescoping():
    _check(acceptance.criterion_4())


def test_criterion_5_relations_cross_check():
    _check(acceptance.criterion_5(seed=acceptance.DEFAULT_SEED))


def test_criterion_6_real_pfister_basis():
    _check(acceptance.criterion_6())


def test_criterion_7_independence_certificates():
    _check(acceptance.criterion_7())


def test_criterion_8_motivic_equivalence():
    _check(acceptance.criterion_8())


def test_criterion_9_model_validation():
    _check(acceptance.criterion_9(seed=acceptance.DEFAULT_SEED))
