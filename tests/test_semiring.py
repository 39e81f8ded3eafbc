"""Semiring kernel: identities, absorption, and log_add numerics."""

import math
import random

import mpmath
import pytest

from latbeam import semiring
from latbeam.semiring import INF, ONE, ZERO, log_add, times, trop_add

from oracles import log_sum


def log_add_reference(a: float, b: float) -> float:
    """Extended-precision oracle: -ln(e^-a + e^-b) at 50 digits."""
    if a == INF:
        return b
    if b == INF:
        return a
    with mpmath.workdps(50):
        return float(-mpmath.log(mpmath.exp(-mpmath.mpf(a))
                                 + mpmath.exp(-mpmath.mpf(b))))


def test_identity_constants():
    assert ZERO == INF
    assert ONE == 0.0


def test_trop_add_is_min():
    assert trop_add(0.7, 1.6) == 0.7
    assert trop_add(1.6, 0.7) == 0.7
    assert trop_add(INF, 3.0) == 3.0


def test_times_is_addition():
    assert times(0.3, 0.4) == pytest.approx(0.7)
    assert times(0.7, INF) == INF
    assert times(INF, 0.7) == INF
    assert times(5.0, ONE) == 5.0


def test_log_add_worked_value():
    got = log_add(0.7, 1.6)
    assert got == pytest.approx(0.3589, abs=1e-4)
    assert got == pytest.approx(log_add_reference(0.7, 1.6), abs=1e-14)


def test_log_add_identity_and_symmetry():
    assert log_add(ZERO, 2.5) == 2.5
    assert log_add(2.5, ZERO) == 2.5
    assert log_add(ZERO, ZERO) == ZERO
    for a, b in [(0.1, 0.2), (5.0, 5.0), (-3.0, 7.0)]:
        assert log_add(a, b) == log_add(b, a)


def test_log_add_below_min():
    # combining mass can only make the cost smaller
    rng = random.Random(7)
    for _ in range(500):
        a = rng.uniform(-50.0, 50.0)
        b = rng.uniform(-50.0, 50.0)
        got = log_add(a, b)
        assert got <= min(a, b)
        assert got >= min(a, b) - math.log(2.0) - 1e-12


def test_log_add_against_extended_precision():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.uniform(-700.0, 700.0)
        b = rng.uniform(-700.0, 700.0)
        got = log_add(a, b)
        want = log_add_reference(a, b)
        assert math.isfinite(got)
        assert got == pytest.approx(want, abs=1e-10)


def test_log_add_extreme_spread():
    # the small-cost side dominates without overflow
    assert log_add(-700.0, 700.0) == pytest.approx(-700.0)
    assert log_add(700.0, -700.0) == pytest.approx(-700.0)
    assert math.isfinite(log_add(-700.0, -700.0))


def test_log_sum_matches_pairwise_fold():
    rng = random.Random(3)
    values = [rng.uniform(0.0, 10.0) for _ in range(20)]
    acc = ZERO
    for v in values:
        acc = log_add(acc, v)
    assert log_sum(values) == acc
    assert log_sum([]) == ZERO


def test_plus_for_dispatch():
    assert semiring.plus_for(semiring.TROPICAL) is trop_add
    assert semiring.plus_for(semiring.LOG) is log_add
    with pytest.raises(Exception):
        semiring.plus_for("viterbi")
