"""Bob's eavesdropping detectors: the QBER threshold test and the
null-to-signal-ratio test.

The two detectors are complementary. Intercept-resend attacks corrupt
the sifted key and trip the QBER test while leaving the loss rate
untouched; a suppression attack leaves the key perfectly correlated and
is visible only as an excess of null signals over what the channel's
absorption and detector efficiency predict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from scipy import stats

from .adversary import ChannelModel

NORMAL_APPROX_MIN_N = 10_000


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
    method: str = "exact-binomial"

    def __post_init__(self) -> None:
        if self.flagged != (self.p_value < self.alpha):
            raise ValueError("inconsistent decision: flagged must equal p_value < alpha")

    def to_dict(self) -> dict:
        return asdict(self)


def expected_rates(channel: ChannelModel) -> ExpectedRates:
    """Expected arrival probability and nulls-per-signal ratio."""
    arrival = (1.0 - channel.absorption) * channel.efficiency
    if arrival <= 0.0:
        raise ValueError("degenerate channel: expected arrival probability is 0")
    return ExpectedRates(
        expected_arrival=arrival,
        expected_null_ratio=(1.0 - arrival) / arrival,
    )


def _binomial_tail(k: int, n: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return float(stats.binom.sf(k - 1, n, p))


def _normal_tail(k: int, n: int, p: float) -> float:
    """Normal approximation to P[X >= k] with continuity correction."""
    sigma = math.sqrt(n * p * (1.0 - p))
    if sigma == 0.0:
        return 1.0 if k <= n * p else 0.0
    return float(stats.norm.sf((k - 0.5 - n * p) / sigma))


def null_ratio_test(
    n_sent: int,
    n_null: int,
    expected: ExpectedRates,
    alpha: float,
    method: str = "exact",
) -> TestDecision:
    """One-sided test of the observed null count against channel expectations.

    Flags when nulls are significantly high for Binomial(n_sent, p_null)
    with p_null = 1 - expected_arrival. The exact tail is the default;
    the normal approximation is accepted only above 10^4 pulses and the
    choice is recorded on the decision.
    """
    if n_sent <= 0:
        raise ValueError("n_sent must be positive")
    if not (0 <= n_null <= n_sent):
        raise ValueError("n_null must lie in [0, n_sent]")
    p_null = 1.0 - expected.expected_arrival
    if method == "exact":
        p_value = _binomial_tail(n_null, n_sent, p_null)
        recorded = "exact-binomial"
    elif method == "normal":
        if n_sent <= NORMAL_APPROX_MIN_N:
            raise ValueError(
                f"normal approximation needs more than {NORMAL_APPROX_MIN_N} pulses"
            )
        p_value = _normal_tail(n_null, n_sent, p_null)
        recorded = "normal-approx"
    else:
        raise ValueError(f"unknown method {method!r}")
    return TestDecision(
        statistic=n_null / n_sent,
        p_value=p_value,
        flagged=p_value < alpha,
        alpha=alpha,
        method=recorded,
    )


def qber_test(qber: float, n_revealed: int, threshold: float) -> TestDecision:
    """Threshold test on the revealed error rate.

    Flags iff the observed rate exceeds the threshold. The p-value is the
    exact binomial tail of seeing at least the observed number of
    disagreements at per-bit error probability `threshold`; alpha is
    placed between the attainable tail values on either side of the
    threshold count so that the flag and the p-value agree exactly.
    """
    if n_revealed <= 0:
        raise ValueError("n_revealed must be positive")
    if not (0.0 <= qber <= 1.0):
        raise ValueError("qber must be in [0, 1]")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [0, 1]")
    k = int(round(qber * n_revealed))
    # smallest disagreement count whose rate exceeds the threshold
    k_star = int(math.floor(n_revealed * threshold)) + 1
    while k_star > 0 and (k_star - 1) / n_revealed > threshold:
        k_star -= 1
    while k_star <= n_revealed and k_star / n_revealed <= threshold:
        k_star += 1
    alpha = 0.5 * (
        _binomial_tail(k_star - 1, n_revealed, threshold)
        + _binomial_tail(k_star, n_revealed, threshold)
    )
    p_value = _binomial_tail(k, n_revealed, threshold)
    return TestDecision(
        statistic=qber,
        p_value=p_value,
        flagged=k >= k_star,
        alpha=alpha,
    )
