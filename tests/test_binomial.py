"""The stdlib binomial quantile behind the statistical gates."""

import random
from fractions import Fraction

import pytest

from dbasim.adversary import forge_success_closed_form
from binomial import binom_interval, binom_ppf, exact_cdf

#: every (confidence, n, p) a statistical gate asks for, its p as the gate computes it
GATES = [
    (0.99, 40000, float(Fraction(2, 3))),
    (0.99, 40000, float(Fraction(2, 5))),
    (0.99, 40000, float(Fraction(5, 21))),
    (0.999, 10000, float(forge_success_closed_form(60, 2))),
    (0.999, 2500, (1 - 2 / 3) ** 2),
    (0.999, 5000, 2 / 3),
]

_rng = random.Random(16)
GRID = [
    (confidence, n, p)
    for confidence in (0.5, 0.9, 0.95, 0.99, 0.999)
    for n in (1, 2, 3, 4, 5, 8, 10, 37, 100, 1000, 5000)
    for p in (1e-6, 1e-3, 0.01, 0.1, 0.125, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 0.999, _rng.random())
]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("p", [0.5, 0.25, 0.1, 2 / 3, 0.999])
def test_quantile_is_the_smallest_k_whose_exact_cdf_reaches_q(n, p):
    for q in (1e-9, 0.0005, 0.005, 0.25, 0.5, 0.75, 0.995, 0.9995, 1 - 1e-9):
        expected = next(k for k in range(n + 1) if exact_cdf(k, n, p) >= Fraction(q))
        assert binom_ppf(q, n, p) == expected


def test_a_cdf_value_equal_to_q_is_decided_exactly():
    # P(X <= 0) = 1/4 exactly at n=2, p=1/2, so the 0.5-confidence interval's
    # lower quantile 0.25 is reached at k = 0, however close decimal comes
    assert exact_cdf(0, 2, 0.5) == Fraction(1, 4)
    assert binom_interval(0.5, 2, 0.5) == (0, 1)


@pytest.mark.parametrize("bad", [(0.0, 5, 0.5), (1.0, 5, 0.5), (0.5, 5, 0.0), (0.5, 5, 1.0), (0.5, -1, 0.5)])
def test_quantile_rejects_arguments_outside_its_domain(bad):
    with pytest.raises(ValueError, match="need 0 < q < 1"):
        binom_ppf(*bad)


@pytest.mark.parametrize("case", GATES)
def test_every_gate_interval_equals_scipy(case):
    binom = pytest.importorskip("scipy.stats").binom
    assert binom_interval(*case) == binom.interval(*case)


def test_intervals_equal_scipy_across_levels_sizes_and_rates():
    binom = pytest.importorskip("scipy.stats").binom
    assert [case for case in GRID if binom_interval(*case) != binom.interval(*case)] == []
