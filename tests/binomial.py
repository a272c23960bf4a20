"""Exact binomial quantiles from the standard library, for the statistical gates.

``binom_interval(confidence, n, p)`` is the equal-tailed interval that
``scipy.stats.binom.interval`` gives: the ``(1 - confidence) / 2`` and
``(1 + confidence) / 2`` quantiles, each the smallest k with
P(X <= k) >= q for X ~ Binomial(n, p).  The CDF is summed in ``decimal``
at 60 significant digits, and each comparison with q is checked against a
bound on the rounding error; a comparison too close to call is made again
in exact rationals.  So the quantile is the exact one for the doubles
given, and the gates keep their levels without importing scipy.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

PRECISION = 60


def binom_ppf(q: float, n: int, p: float) -> int:
    """The smallest k with P(X <= k) >= q, X ~ Binomial(n, p), for 0 < q < 1 and 0 < p < 1."""
    if not (0 < q < 1 and 0 < p < 1 and n >= 0):
        raise ValueError(f"need 0 < q < 1, 0 < p < 1 and n >= 0, got q={q}, n={n}, p={p}")
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ctx.Emin = -(10**9)
        target = Decimal(q)  # exact: every double is a finite decimal
        success = Decimal(p)
        failure = 1 - success
        # each term carries a relative error of at most about 6n roundings of
        # 10**(1 - PRECISION) / 2, and the sum one more per term; the bound
        # is two hundred times that
        bound = (4 * n + 100) * Decimal(10) ** (3 - PRECISION)
        term = failure**n
        cdf = term
        for k in range(n):
            if cdf >= target + bound:
                return k
            if cdf > target - bound and exact_cdf(k, n, p) >= Fraction(q):
                return k
            term = term * (n - k) * success / ((k + 1) * failure)
            cdf += term
    return n


def exact_cdf(k: int, n: int, p: float) -> Fraction:
    """P(X <= k) for X ~ Binomial(n, p), in exact rationals."""
    success = Fraction(p)
    failure = 1 - success
    return sum((comb(n, j) * success**j * failure ** (n - j) for j in range(k + 1)), Fraction(0))


def binom_interval(confidence: float, n: int, p: float) -> tuple[int, int]:
    """The interval ``scipy.stats.binom.interval(confidence, n, p)`` gives, for 0 < confidence < 1."""
    return binom_ppf((1.0 - confidence) / 2, n, p), binom_ppf((1.0 + confidence) / 2, n, p)
