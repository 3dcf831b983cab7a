"""The QBER threshold test and the null-ratio test, their complementarity,
and the exact binomial tails behind both."""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from enumeration import binomial_tail_decimal, binomial_tails_exact
from scipy import stats

import qkdsim
from qkdsim.adversary import ChannelModel
from qkdsim.detection import (
    _STIRLERR,
    TestDecision,
    binomial_tails,
    expected_rates,
    null_ratio_test,
    qber_test,
)
from qkdsim.harness import ExperimentConfig, run_experiment

# The tails are summed in numpy; scipy stays the oracle, to this relative
# bound. Values below the smallest normal double only have to stay there.
SCIPY_TOL = 1e-11
SMALLEST_NORMAL = 2.0**-1022


def _tail(k, n, p):
    return 1.0 if k <= 0 else float(stats.binom.sf(k - 1, n, p))


def _close(value, reference, tol=SCIPY_TOL):
    return abs(value - reference) <= tol * abs(reference) + SMALLEST_NORMAL


def _assert_same_decisions(got, expected):
    """Equal statistics and flags; p-values and levels within the bound."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.statistic, g.flagged) == (e.statistic, e.flagged)
        assert _close(g.p_value, e.p_value) and _close(g.alpha, e.alpha)


def _arrival(channel):
    return expected_rates(channel).expected_arrival


def _scalar_qber_decision(k, n, threshold):
    """The threshold test written per point with Python ints and floats."""
    k_star = int(math.floor(n * threshold)) + 1
    while k_star > 0 and (k_star - 1) / n > threshold:
        k_star -= 1
    while k_star <= n and k_star / n <= threshold:
        k_star += 1
    alpha = 0.5 * (_tail(k_star - 1, n, threshold) + _tail(k_star, n, threshold))
    return TestDecision(k / n, _tail(k, n, threshold), k >= k_star, alpha)


class TestBatchedTails:
    """The vectorised tails and tests against one scalar call per element."""

    def test_tails_bit_identical_to_scalar_calls(self):
        """Each element's tail has the same bits alone, in a shuffled batch
        and in ragged batches, and lies within the bound of scipy's."""
        draws = random.Random(5)
        k, n, p = [], [], []
        for _ in range(3_000):
            n.append(draws.randint(1, 50_000))
            k.append(draws.randint(-2, n[-1] + 2))
            p.append(draws.choice((0.0, 1.0, draws.random(), draws.random() * 1e-3)))
        k, n, p = np.array(k), np.array(n), np.array(p)
        batched = binomial_tails(k, n, p)
        alone = [binomial_tails(k[i : i + 1], n[i : i + 1], p[i : i + 1]) for i in range(len(k))]
        order = np.random.default_rng(5).permutation(len(k))
        shuffled = np.empty_like(batched)
        shuffled[order] = binomial_tails(k[order], n[order], p[order])
        cuts = [0, *sorted(draws.sample(range(1, len(k)), 40)), len(k)]
        ragged = [binomial_tails(k[i:j], n[i:j], p[i:j]) for i, j in zip(cuts, cuts[1:])]
        for other in (np.concatenate(alone), shuffled, np.concatenate(ragged)):
            assert other.tobytes() == batched.tobytes()
        for tail, args in zip(batched.tolist(), zip(k.tolist(), n.tolist(), p.tolist())):
            assert _close(tail, _tail(*args)), args

    def test_tails_follow_the_count_contract(self):
        """A fractional k or n, or a float array even of whole numbers, is a
        rate and is rejected, as is a probability outside [0, 1]; empty
        inputs pass."""
        for k, n in ((0.5, 10), (3, 10.5), ([3.0], [10]), ([3], [10.0])):
            with pytest.raises(ValueError, match="integer counts"):
                binomial_tails(k, n, 0.5)
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="p must be in"):
                binomial_tails(3, 10, p)
        assert binomial_tails([], [], []).tolist() == []

    def test_sequences_give_the_scalar_decisions(self):
        draws = random.Random(6)
        channels = [ChannelModel(draws.random() * 0.5, 0.5 + draws.random() * 0.5) for _ in range(40)]
        sent = [draws.randint(1, 5_000) for _ in channels]
        nulls = [draws.randint(0, s) for s in sent]
        alphas = [draws.choice((0.001, 0.05, 0.5)) for _ in channels]
        expected = [expected_rates(c) for c in channels]
        arrivals = [e.expected_arrival for e in expected]
        _assert_same_decisions(null_ratio_test(sent, nulls, arrivals, alphas), [
            TestDecision(k / n, p_value, p_value < alpha, alpha)
            for n, k, e, alpha in zip(sent, nulls, expected, alphas)
            for p_value in [_tail(k, n, 1.0 - e.expected_arrival)]
        ])
        revealed = [draws.randint(1, 3_000) for _ in range(40)]
        wrong = [draws.randint(0, r) for r in revealed]
        thresholds = [draws.choice((0.0, 0.05, 0.11, 1 / 3, 1.0)) for _ in revealed]
        _assert_same_decisions(qber_test(wrong, revealed, thresholds), [
            _scalar_qber_decision(*args) for args in zip(wrong, revealed, thresholds)
        ])


class TestTailAccuracy:
    """The numpy tails against exact sums and scipy, at both ends, on both
    sides of the branch switch p = (k + 1) / (n + 3), and in order."""

    SMALL_N = (1, 2, 3, 4, 7, 16, 50, 128, 199, 200)

    @staticmethod
    def _small_n_probabilities(n, draws):
        switch = [(k + 1) / (n + 3) for k in (1, n // 2, n - 1)]
        return [0.0, 1.0, 0.5, draws.random(), draws.random(), draws.random() * 1e-3,
                1.0 - draws.random() * 1e-3, *switch]

    def test_tails_match_exact_fractions_up_to_n_200(self):
        """Every k from -1 to n + 1, k = 1 and k = n among them, within
        1e-12 of the exact sum wherever that is a normal double."""
        draws = random.Random(21)
        for n in self.SMALL_N:
            for p in self._small_n_probabilities(n, draws):
                exact = binomial_tails_exact(n, p)
                tails = binomial_tails(np.arange(-1, n + 2), n, p).tolist()
                for k, tail in zip(range(-1, n + 2), tails):
                    assert _close(tail, float(exact[max(k, 0)]), 1e-12), (k, n, p)

    def test_tails_within_bound_up_to_n_1e7(self):
        """k on both sides of the branch switch and out in both tails, for
        p uniform or below 1e-3. Where k <= 200 the reference is the
        50-digit decimal sum: scipy's own betainc is off by up to 6e-11
        there at large n (5.9e-11 at k = 8, n = 2,091,941, p = 4.24e-6)."""
        draws = random.Random(22)
        k, n, p = [], [], []
        for _ in range(1_500):
            size = max(1, int(10 ** draws.uniform(0, 7)))
            prob = draws.choice((draws.random(), draws.random() * 1e-3))
            spread = math.sqrt(size * prob * (1.0 - prob))
            offset = draws.choice((-2, -1, 0, 1, 2)) + draws.gauss(0, 1) * draws.choice((0, 1, 6)) * spread
            k.append(min(max(round(prob * (size + 3) - 1 + offset), 1), size))
            n.append(size)
            p.append(prob)
        tails = binomial_tails(k, n, p).tolist()
        for tail, args in zip(tails, zip(k, n, p)):
            reference = binomial_tail_decimal(*args) if args[0] <= 200 else _tail(*args)
            assert _close(tail, reference), args

    def test_tails_strictly_decrease_in_k(self):
        """P[X >= k] - P[X >= k + 1] = pmf(k) > 0: the tails never rise with
        k, and fall wherever P[X >= k] is a normal double and pmf(k) is
        more than 1e-10 of it, so that the two differ as doubles."""
        draws = random.Random(23)
        cases = [(n, p, np.arange(0, n + 1), binomial_tails_exact(n, p))
                 for n in self.SMALL_N for p in self._small_n_probabilities(n, draws)]
        for n in (10**5, 10**6, 10**7):
            for p in (0.05, 0.28, 0.5, draws.random() * 1e-3):
                # 300 k from 12 standard deviations below the mean to 12 above
                mean, spread = n * p, math.sqrt(n * p * (1.0 - p))
                ks = np.round(mean + spread * np.linspace(-12.0, 12.0, 300)).astype(np.int64)
                cases.append((n, p, np.unique(np.clip(ks, 0, n)), None))
        for n, p, ks, exact in cases:
            tails = binomial_tails(ks, n, p).tolist()
            for k, upper, lower in zip(ks.tolist(), tails, binomial_tails(ks + 1, n, p).tolist()):
                assert lower <= upper, (k, n, p)
                if upper < SMALLEST_NORMAL:
                    falls = False
                elif exact is not None:
                    falls = exact[k] - exact[k + 1] > 1e-10 * exact[k]
                else:
                    log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                               + k * math.log(p) + (n - k) * math.log1p(-p))
                    falls = log_pmf > math.log(1e-10 * upper)
                assert lower < upper or not falls, (k, n, p)

    def test_stirling_table_is_exact(self):
        """The table of log(j!) - log(sqrt(2 pi j) (j/e)^j) for j < 16."""
        with localcontext() as context:
            context.prec = 40
            half_log_two_pi = (2 * Decimal("3.14159265358979323846264338327950288")).ln() / 2
            for j in range(1, 16):
                error = (Decimal(math.factorial(j)).ln()
                         - ((j + Decimal("0.5")) * Decimal(j).ln() - j + half_log_two_pi))
                assert _STIRLERR[j] == float(error)


class TestExpectedRates:
    def test_perfect_channel(self):
        rates = expected_rates(ChannelModel())
        assert rates.expected_arrival == 1.0
        assert rates.expected_null_ratio == 0.0

    def test_lossy_channel_closed_form(self):
        rates = expected_rates(ChannelModel(0.1, 0.8))
        assert rates.expected_arrival == pytest.approx(0.72)
        assert rates.expected_null_ratio == pytest.approx(0.28 / 0.72)

    def test_half_absorption_unit_ratio(self):
        assert expected_rates(ChannelModel(0.5, 1.0)).expected_null_ratio == pytest.approx(1.0)

    def test_degenerate_channel_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            expected_rates(ChannelModel(absorption=1.0))


class TestNullRatioTest:
    def test_no_nulls_is_clean(self):
        (decision,) = null_ratio_test([10_000], [0], [_arrival(ChannelModel())], [0.001])
        assert decision.p_value == 1.0
        assert not decision.flagged

    def test_suppression_scale_excess_is_decisive(self):
        (decision,) = null_ratio_test([100_000], [75_000], [_arrival(ChannelModel())], [0.001])
        assert decision.p_value < 1e-9
        assert decision.flagged

    def test_p_value_monotone_in_null_count(self):
        arrival = _arrival(ChannelModel(0.2, 0.9))
        p_values = [
            null_ratio_test([10_000], [k], [arrival], [0.001])[0].p_value
            for k in range(0, 10_001, 250)
        ]
        assert all(a >= b for a, b in zip(p_values, p_values[1:]))

    def test_method_recorded(self):
        arrival = _arrival(ChannelModel(0.2, 1.0))
        assert null_ratio_test([100], [20], [arrival], [0.01])[0].method == "exact-binomial"

    def test_bad_counts_rejected(self):
        arrival = _arrival(ChannelModel())
        with pytest.raises(ValueError):
            null_ratio_test([0], [0], [arrival], [0.01])
        with pytest.raises(ValueError):
            null_ratio_test([10], [11], [arrival], [0.01])

    def test_bad_probability_and_level_rejected(self):
        for arrival in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="expected_arrival must be in"):
                null_ratio_test([100], [20], [arrival], [0.01])
        for alpha in (7.0, 0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be in"):
                null_ratio_test([100], [20], [0.8], [alpha])

    def test_false_positive_rate_calibrated(self):
        """Honest null counts flag at most 0.5% of the time at alpha 1e-3."""
        n, p_null = 100_000, 0.28
        arrival = _arrival(ChannelModel(absorption=p_null))
        counts = np.random.default_rng(12345).binomial(n, p_null, size=1_000)
        flagged = sum(
            null_ratio_test([n], [int(k)], [arrival], [0.001])[0].flagged for k in counts
        )
        assert flagged / 1_000 <= 0.005


class TestQberTest:
    def test_zero_qber_never_flags_positive_threshold(self):
        for threshold in (0.001, 0.05, 0.25):
            (decision,) = qber_test([0], [5_000], [threshold])
            assert not decision.flagged
            assert decision.p_value == 1.0

    def test_zero_threshold_flags_any_disagreement(self):
        assert qber_test([1], [5_000], [0.0])[0].flagged
        assert not qber_test([0], [5_000], [0.0])[0].flagged

    def test_intercept_resend_scale_error_flags(self):
        (decision,) = qber_test([10_000], [30_000], [0.05])
        assert decision.statistic == 1 / 3
        assert decision.flagged
        assert decision.p_value < 1e-9

    def test_flag_iff_above_threshold(self):
        # 100 * 0.29 is 28.999999999999996, so a rate of exactly 29/100 sits
        # on the threshold only after the count search corrects the floor
        for k, n, threshold in ((0, 1_000, 0.05), (49, 1_000, 0.05), (50, 1_000, 0.05),
                                (51, 1_000, 0.05), (100, 1_000, 0.05), (29, 100, 0.29)):
            (decision,) = qber_test([k], [n], [threshold])
            assert decision.flagged == (k / n > threshold)

    def test_decision_internally_consistent_across_grid(self):
        """Constructing a TestDecision enforces flagged == (p < alpha)."""
        for n in (10, 383, 5_000):
            for threshold in (0.0, 0.03, 0.5, 1.0):
                for k in (0, 1, n // 3, n - 1, n):
                    qber_test([k], [n], [threshold])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            qber_test([0], [0], [0.05])
        with pytest.raises(ValueError):
            qber_test([12], [10], [0.05])
        with pytest.raises(ValueError):
            qber_test([-1], [10], [0.05])
        # a rate in place of a count would read as 0.1 disagreements
        with pytest.raises(ValueError, match="integer counts"):
            qber_test([0.1], [100], [0.05])
        # a fractional total, or a rate in place of the null count, is no count either
        with pytest.raises(ValueError, match="integer counts"):
            qber_test([10], [100.5], [0.05])
        with pytest.raises(ValueError, match="integer counts"):
            null_ratio_test([100], [0.2], [0.8], [0.01])
        with pytest.raises(ValueError, match="integer counts"):
            null_ratio_test([100.5], [20], [0.8], [0.01])

    def test_every_input_gives_a_list(self):
        """No scalar mode: empty, one-element and scalar inputs all give lists."""
        assert [f.name for f in fields(TestDecision)] == ["statistic", "p_value", "flagged", "alpha"]
        assert null_ratio_test([], [], [], []) == [] and qber_test([], [], []) == []
        assert null_ratio_test(100, 20, 0.8, 0.01) == null_ratio_test([100], [20], [0.8], [0.01])
        assert qber_test(10, 100, 0.05) == qber_test([10], [100], [0.05])
        assert len(qber_test(10, 100, 0.05)) == 1

    def test_inconsistent_decision_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            TestDecision(statistic=0.0, p_value=1.0, flagged=True, alpha=0.001)


class TestDetectorComplementarity:
    """The two detectors split the attack space: loss-only vs error-only."""

    N = 100_000
    SEEDS = range(100)

    def _report(self, strategy, seed):
        return run_experiment(
            ExperimentConfig(
                protocol="b92",
                n_pulses=self.N,
                eve_strategy=strategy,
                reveal_fraction=0.25,
                alpha=0.001,
                qber_threshold=0.05,
                master_seed=seed,
            )
        )

    def test_intercept_resend_caught_by_qber_only(self):
        for seed in self.SEEDS:
            report = self._report("intercept_resend", seed)
            assert report.qber_test.flagged
            assert not report.null_ratio_test.flagged

    def test_usd_suppress_caught_by_null_ratio_only(self):
        for seed in self.SEEDS:
            report = self._report("usd_suppress", seed)
            assert report.null_ratio_test.flagged
            assert not report.qber_test.flagged
            assert report.qber == 0.0

    def test_honest_sessions_flag_neither(self):
        for seed in self.SEEDS:
            report = self._report("none", seed)
            assert not report.qber_test.flagged
            assert not report.null_ratio_test.flagged


def test_cli_session_loads_no_scipy(tmp_path):
    """The tails are summed in numpy: a process that imports the CLI and
    runs a lossy B92 session through `main` loads no scipy module, which
    a lazy import inside the tails would."""
    src = str(Path(qkdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    config = tmp_path / "lossy.json"
    config.write_text(json.dumps({"protocol": "b92", "n_pulses": 2_000, "absorption": 0.1,
                                  "efficiency": 0.9, "eve_strategy": "usd_suppress"}))
    probe = (
        "import contextlib, io, sys\n"
        "import qkdsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = qkdsim.cli.main(['run', '--config', {str(config)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"
