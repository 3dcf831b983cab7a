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
decision's statistic is the one rate, count over total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import betainc

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
    """P[X >= k] for X ~ Binomial(n, p), elementwise, from one scipy call.

    Uses P[X >= k] = I_p(k, n - k + 1), the regularised incomplete beta
    function (Abramowitz & Stegun 26.5.24); the values equal
    `scipy.stats.binom.sf(k - 1, n, p)` called per element, bit for bit.
    The tail is exactly 1 where k <= 0 and exactly 0 where k > n. `k` and
    `n` must be integers (a rate is rejected) and `p` must lie in [0, 1].
    """
    k, n, p = np.broadcast_arrays(k, n, p)
    _check_integers(k, n, "k", "n")
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must be in [0, 1]")
    tails = np.ones(k.shape)
    some = k > 0
    tails[some] = betainc(k[some], n[some] - k[some] + 1, p[some])
    tails[k > n] = 0.0
    return tails


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
