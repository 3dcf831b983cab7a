"""Bob's eavesdropping detectors: the QBER threshold test and the
null-to-signal-ratio test.

The two detectors are complementary. Intercept-resend attacks corrupt
the sifted key and trip the QBER test while leaving the loss rate
untouched; a suppression attack leaves the key perfectly correlated and
is visible only as an excess of null signals over what the channel's
absorption and detector efficiency predict. Each test takes its counts:
the null test the nulls among the pulses sent, the QBER test the
disagreements among the revealed bits. Both hold them to one contract,
integer counts of positive integer totals (a rate is rejected), and each
decision's statistic is the one rate, count over total. Both p-values
are exact binomial tails, summed here from Loader's saddle-point pmf, so
the package needs no scipy at run time. Each tail's transcendental steps
(its closed form, or the first term of its sum) run in `math`, one
element at a time, and the sums run in numpy's basic arithmetic, which
rounds alike at every SIMD level, so a report's p-values have the same
bits whichever kernels numpy dispatches to on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .adversary import ChannelModel


@dataclass(frozen=True)
class ExpectedRates:
    """Arrival and null expectations Bob derives from the channel model."""

    expected_arrival: float
    expected_null_ratio: float


@dataclass(frozen=True)
class TestDecision:
    __test__ = False  # not a pytest class, despite the name

    statistic: float
    p_value: float
    flagged: bool
    alpha: float
    method: ClassVar[str] = "exact-binomial"

    def __post_init__(self) -> None:
        if self.flagged != (self.p_value < self.alpha):
            raise ValueError("inconsistent decision: flagged must equal p_value < alpha")


def expected_rates(channel: ChannelModel) -> ExpectedRates:
    """Expected arrival probability and nulls-per-signal ratio, which
    must be finite (a report holds it as JSON)."""
    arrival = (1.0 - channel.absorption) * channel.efficiency
    null_ratio = (1.0 - arrival) / arrival if arrival > 0.0 else math.inf
    if not math.isfinite(null_ratio):
        raise ValueError(
            f"degenerate channel (absorption {channel.absorption!r}, efficiency "
            f"{channel.efficiency!r}) delivers a pulse too rarely: "
            "its expected null ratio is not finite"
        )
    return ExpectedRates(expected_arrival=arrival, expected_null_ratio=null_ratio)


def binomial_tails(k, n, p) -> np.ndarray:
    """P[X >= k] for X ~ Binomial(n, p), elementwise.

    The tail is exactly 1 where k <= 0 and exactly 0 where k > n, and
    takes the closed forms 1 - (1 - p)^n at k = 1 and p^n at k = n.
    Between them it sums the pmf away from the mode: upward from k while
    p < (k + 1) / (n + 3), else 1 minus the sum from k - 1 downward (see
    `_sum_from`). The closed forms and each sum's first term come from
    `math`, so an element's bits do not depend on numpy's SIMD kernels.
    The tails lie within 3e-12 relative of the exact sums up to
    n = 10^7, and each element's bits depend only on its own (k, n, p),
    so a batched call equals one call per element. `k` and
    `n` must be integers (a rate is rejected) and `p` must lie in [0, 1].
    """
    k, n, p = np.broadcast_arrays(k, n, p)
    _check_integers(k, n, "k", "n")
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must be in [0, 1]")
    tails = np.where(k > 0, 0.0, 1.0)
    some = (k > 0) & (k <= n) & (p > 0.0)
    if not some.any():  # at p = 0, as in a lossless session's null test, no tail needs a sum
        return tails
    k, n, p = k[some].astype(float), n[some].astype(float), p[some].astype(float)
    values = np.array([
        -math.expm1(nj * math.log1p(-pj)) if kj == 1 and pj < 1.0 else pj**nj
        for kj, nj, pj in zip(k.tolist(), n.tolist(), p.tolist())
    ])
    middle = (k > 1) & (k < n) & (p < 1.0)
    if middle.any():
        k, n, p = k[middle], n[middle], p[middle]
        q = 1.0 - p
        upper = p < (k + 1.0) / (n + 3.0)
        # below the switch, the lower tail of X is the upper tail of n - X ~ Binomial(n, 1 - p)
        summed = _sum_from(np.where(upper, k, n - k + 1.0), n, np.where(upper, p, q), np.where(upper, q, p))
        values[middle] = np.where(upper, summed, 1.0 - summed)
    tails[some] = values
    return tails


# log(j!) - log(sqrt(2 pi j) (j/e)^j) for j = 0..15, correctly rounded
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# pmf terms an unfinished element adds a pass: _FIRST in its first, doubling up to _LAST
_FIRST, _LAST = 64, 1024
_NEGLIGIBLE = 2.0**-60  # a rest below this share of the sum cannot change it


def _stirlerr(j: float) -> float:
    """The error of Stirling's formula for j!, from the table below 16 and
    the series 1/12j - 1/360j^3 + ... to j^-9 above it."""
    if j < 16:
        return _STIRLERR[int(j)]
    jj = j * j
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj) / jj) / jj) / j


def _bd0(x: float, m: float) -> float:
    """Loader's deviance x log(x / m) + m - x, written as x log1p(d / m) - d
    with d = x - m, so that it stays accurate near its zero at x = m. Where
    m is subnormal, d / m is inf and so is the deviance."""
    d = x - m
    return x * math.log1p(d / m) - d


def _pmf(j: float, n: float, p: float, q: float) -> float:
    """Binomial(n, p) pmf at 1 <= j <= n - 1, q = 1 - p, by Loader's
    saddle-point form (Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000): differences of small Stirling errors and
    deviances, not of large log-gammas, so it keeps its relative accuracy
    at any n."""
    exponent = _stirlerr(n) - _stirlerr(j) - _stirlerr(n - j) - _bd0(j, n * p) - _bd0(n - j, n * q)
    return math.exp(exponent - 0.5 * math.log(2.0 * math.pi * j * ((n - j) / n)))


def _sum_from(j: np.ndarray, n: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P[X >= j] for X ~ Binomial(n, p), 1 <= j <= n - 1 past the mode.

    The first term is Loader's pmf at j; each next one is the last times
    pmf(i + 1) / pmf(i) = (n - i) p / ((i + 1) q), which falls below 1 past
    the mode and reaches 0 at n. An element adds `_FIRST` terms in its
    first pass and twice as many in each next one, up to `_LAST`, by
    sequential cumulative products and sums, and stops on its own once
    the rest, at most the last term times r / (1 - r) for the pass's last
    ratio r, is negligible, or once it has summed up to n. The passes an
    element takes depend only on its own terms, so its bits do not depend
    on its batch-mates.
    """
    total = carry = np.array(list(map(_pmf, j.tolist(), n.tolist(), p.tolist(), q.tolist())))
    out = np.empty_like(total)
    rows = np.arange(total.size)
    width = _FIRST
    while rows.size:
        steps = np.arange(width, dtype=float)
        ratios = ((n - j)[:, None] - steps) * p[:, None] / (((j + 1.0)[:, None] + steps) * q[:, None])
        last = ratios[:, -1]
        terms = np.cumprod(ratios, axis=1)  # pmf(j + 1 + i) / pmf(j)
        total = total + carry * np.cumsum(terms, axis=1)[:, -1]
        carry = carry * terms[:, -1]
        done = (carry * last <= (1.0 - last) * total * _NEGLIGIBLE) | (j + width >= n)
        out[rows[done]] = total[done]
        keep = ~done
        rows, j, n, p, q, total, carry = (
            a[keep] for a in (rows, j + width, n, p, q, total, carry)
        )
        width = min(2 * width, _LAST)
    return out


def _check_integers(k: np.ndarray, n: np.ndarray, count: str, total: str) -> None:
    """Integer arrays `k` and `n`: a float array, even of whole numbers, is
    a rate. Empty inputs pass."""
    if k.size and (k.dtype.kind not in "iu" or n.dtype.kind not in "iu"):
        raise ValueError(f"{count} and {total} must be integer counts, not rates")


def _check_counts(k: np.ndarray, n: np.ndarray, count: str, total: str) -> None:
    """The one count contract: integer counts `k` of integer totals `n`,
    each total positive and each count in [0, total]."""
    _check_integers(k, n, count, total)
    if np.any(n <= 0):
        raise ValueError(f"{total} must be positive")
    if np.any(k < 0) or np.any(k > n):
        raise ValueError(f"{count} must lie in [0, {total}]")


def _decisions(k, n, p_values, flagged, alpha) -> list[TestDecision]:
    """One decision per session, whose statistic is its count over its total."""
    return [
        TestDecision(statistic=q, p_value=p, flagged=f, alpha=a)
        for q, p, f, a in zip((k / n).tolist(), p_values.tolist(), flagged.tolist(), alpha.tolist())
    ]


def null_ratio_test(n_sent, n_null, expected_arrival, alpha) -> list[TestDecision]:
    """One-sided exact binomial test of the observed null count against
    channel expectations.

    Flags when nulls are significantly high for Binomial(n_sent, p_null)
    with p_null = 1 - expected_arrival, at level alpha; expected_arrival
    must lie in [0, 1] and alpha in (0, 1). Each argument holds one entry
    per session, the counts as integers (a rate is rejected); the result
    holds one decision per session, with every tail from one vectorised
    call.
    """
    n_sent, n_null, arrival, alpha = np.broadcast_arrays(
        *np.atleast_1d(n_sent, n_null, expected_arrival, alpha)
    )
    _check_counts(n_null, n_sent, "n_null", "n_sent")
    if not np.all((0.0 <= arrival) & (arrival <= 1.0)):
        raise ValueError("expected_arrival must be in [0, 1]")
    if not np.all((0.0 < alpha) & (alpha < 1.0)):
        raise ValueError("alpha must be in (0, 1)")
    p_values = binomial_tails(n_null, n_sent, 1.0 - arrival)
    return _decisions(n_null, n_sent, p_values, p_values < alpha, alpha)


def qber_test(n_wrong, n_revealed, threshold) -> list[TestDecision]:
    """Threshold test on the revealed disagreement count.

    The statistic is the QBER, n_wrong / n_revealed, and the test flags
    iff it exceeds the threshold. The p-value is the exact binomial tail
    of seeing at least n_wrong disagreements at per-bit error probability
    `threshold`; alpha is placed between the attainable tail values on
    either side of the threshold count so that the flag and the p-value
    agree exactly. Each argument holds one entry per session, the counts
    and totals as integers (a rate is rejected); the result holds one
    decision per session, with all the tails from one vectorised call.
    """
    k, n_revealed, threshold = np.broadcast_arrays(*np.atleast_1d(n_wrong, n_revealed, threshold))
    _check_counts(k, n_revealed, "n_wrong", "n_revealed")
    if not np.all((0.0 <= threshold) & (threshold <= 1.0)):
        raise ValueError("threshold must be in [0, 1]")
    # smallest disagreement count whose rate exceeds the threshold
    k_star = np.floor(n_revealed * threshold).astype(np.int64) + 1
    while np.any(high := (k_star > 0) & ((k_star - 1) / n_revealed > threshold)):
        k_star -= high
    while np.any(low := (k_star <= n_revealed) & (k_star / n_revealed <= threshold)):
        k_star += low
    tails = binomial_tails(
        np.concatenate([k_star - 1, k_star, k]),
        np.tile(n_revealed, 3),
        np.tile(threshold, 3),
    ).reshape(3, -1)
    return _decisions(k, n_revealed, tails[2], k >= k_star, 0.5 * (tails[0] + tails[1]))
