"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. Monte Carlo criteria use 10^5 pulses and 4-sigma
binomial tolerances unless a criterion states otherwise; all runs are
seeded and therefore stable.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from enumeration import intercept_resend_b92, intercept_resend_bb84, usd_suppress_b92
from qkdsim.adversary import ChannelModel, EveKind, EveStrategy
from qkdsim.harness import (
    ExperimentConfig,
    InfeasibleStrategyError,
    run_experiment,
)
from qkdsim.quantum import (
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    mixture_density,
    random_povm,
)
from qkdsim.protocol import ProtocolKind
from qkdsim.rng import RngStream
from qkdsim.usd import UsdSchemeKind, no_signaling_distributions, usd_feasible
from reference import one_session, sent_ids

N = 100_000
SQRT_HALF = 1.0 / math.sqrt(2.0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def _conclusive_stats(scheme, n_pulses, seed):
    """Per sent state: (conclusive frequency, wrong identifications).

    Counted from the columns of a lossless suppression session: a pulse
    is conclusive when Eve forwards a state, and wrong when that state is
    not the one Alice sent. Each state is sent to about n_pulses / 2.
    """
    t = one_session(
        ProtocolKind.B92, n_pulses, ChannelModel(), EveStrategy(EveKind.USD_SUPPRESS, scheme), seed
    )
    sent_id = sent_ids(t.alice_bits, t.alice_bases)
    conclusive = t.forwarded_ids >= 0
    wrong = conclusive & (t.forwarded_ids != sent_id)
    stats = {}
    for state in (Z_PLUS, X_PLUS):
        sent = sent_id == t.states.index(state)
        stats[state] = (np.sum(conclusive & sent) / np.sum(sent), int(np.sum(wrong & sent)))
    return stats


def _run(**overrides):
    base = {"protocol": "b92", "n_pulses": N, "master_seed": 1}
    base.update(overrides)
    return run_experiment(ExperimentConfig.from_dict(base))


def test_criterion_1_naive_usd_efficiency():
    with criterion(1, "naive USD conclusive rate 0.25 +/- 0.006 on each input"):
        for freq, _ in _conclusive_stats(UsdSchemeKind.NAIVE_RANDOM_BASIS, 2 * N, 101).values():
            assert abs(freq - 0.25) <= 0.006


def test_criterion_2_zero_misidentification():
    with criterion(2, "0 wrong conclusive outcomes in 1e6 naive and 1e6 optimal trials"):
        naive, optimal = UsdSchemeKind.NAIVE_RANDOM_BASIS, UsdSchemeKind.OPTIMAL_IDP
        for seed, scheme in ((201, naive), (202, optimal)):
            for freq, wrong in _conclusive_stats(scheme, 1_000_000, seed).values():
                assert freq > 0.2
                assert wrong == 0


def test_criterion_3_optimal_beats_naive():
    with criterion(3, "optimal conclusive rate (1 - 1/sqrt 2) +/- 0.006, above naive"):
        expected = 1.0 - SQRT_HALF
        optimal = _conclusive_stats(UsdSchemeKind.OPTIMAL_IDP, 2 * N, 301)
        naive = _conclusive_stats(UsdSchemeKind.NAIVE_RANDOM_BASIS, 2 * N, 311)
        for state in (Z_PLUS, X_PLUS):
            optimal_freq, naive_freq = optimal[state][0], naive[state][0]
            assert abs(optimal_freq - expected) <= 0.006
            assert optimal_freq > naive_freq


def test_criterion_4_honest_b92():
    with criterion(
        4, "honest B92: qber 0, sift rate 0.25 +/- 0.006, detectors silent over 1000 seeds"
    ):
        for seed in (401, 402, 403):
            report = _run(master_seed=seed, alpha=0.001)
            assert report.qber == 0.0
            assert abs(report.to_dict()["statistics"]["sift_rate"] - 0.25) <= 0.006
            assert not report.qber_test.flagged
            assert not report.null_ratio_test.flagged

        false_positives = 0
        for seed in range(1_000):
            report = _run(
                master_seed=seed,
                absorption=0.1,
                efficiency=0.9,
                reveal_fraction=0.1,
                alpha=0.001,
            )
            assert report.qber == 0.0
            if report.qber_test.flagged or report.null_ratio_test.flagged:
                false_positives += 1
        assert false_positives / 1_000 <= 0.005


def test_criterion_5_usd_suppress_signature():
    with criterion(
        5, "suppression attack: qber exactly 0, null fraction 0.75 +/- 0.006, p < 1e-9"
    ):
        for seed in (501, 502, 503):
            report = _run(master_seed=seed, eve_strategy="usd_suppress", reveal_fraction=1.0)
            assert report.qber == 0.0
            assert not report.qber_test.flagged
            counts = report.to_dict()["counts"]
            assert abs(counts["null"] / counts["sent"] - 0.75) <= 0.006
            assert report.null_ratio_test.p_value < 1e-9
            assert report.null_ratio_test.flagged


def test_criterion_6_forwarded_state_symmetry():
    with criterion(6, "suppression forwards z+ and x+ like a fair coin (4 sigma)"):
        for seed in (601, 602, 603):
            report = _run(master_seed=seed, eve_strategy="usd_suppress")
            total = report.forwarded_z + report.forwarded_x
            assert total > 0
            bound = 4.0 * math.sqrt(total / 4.0)
            assert abs(report.forwarded_z - report.forwarded_x) <= bound


def test_criterion_7_intercept_resend_contrast():
    with criterion(
        7, "intercept-resend qber: b92 1/3 +/- 0.02, bb84 1/4 +/- 0.02, both flagged"
    ):
        oracles = {
            "b92": intercept_resend_b92()["qber"],
            "bb84": intercept_resend_bb84()["qber"],
        }
        assert oracles["b92"] == pytest.approx(1 / 3, abs=1e-12)
        assert oracles["bb84"] == pytest.approx(1 / 4, abs=1e-12)
        for protocol, seed in (("b92", 701), ("bb84", 702)):
            report = _run(
                protocol=protocol,
                master_seed=seed,
                eve_strategy="intercept_resend",
                reveal_fraction=1.0,
                qber_threshold=0.05,
            )
            oracle = oracles[protocol]
            assert abs(report.qber - oracle) <= 0.02
            sigma = math.sqrt(oracle * (1 - oracle) / report.revealed)
            assert abs(report.qber - oracle) <= 4 * sigma
            assert report.qber_test.flagged


def test_criterion_8_four_state_impossibility():
    with criterion(
        8, "four-state USD infeasible: Gram rank, fail-fast error, no-signaling gap <= 1e-10"
    ):
        assert not usd_feasible([Z_PLUS, Z_MINUS, X_PLUS, X_MINUS])
        with pytest.raises(InfeasibleStrategyError):
            _run(protocol="bb84", eve_strategy="usd_suppress", n_pulses=10)
        rng = RngStream(801)
        z_mixture = mixture_density((Z_PLUS, Z_MINUS), (0.5, 0.5))
        x_mixture = mixture_density((X_PLUS, X_MINUS), (0.5, 0.5))
        for _ in range(100):
            povm = random_povm(rng)
            _, _, diff = no_signaling_distributions(povm, z_mixture, x_mixture)
            assert diff <= 1e-10


def test_criterion_9_basis_mismatch_trial_and_error():
    with criterion(9, "basis mismatch: qber 0 at delta 0, matches enumeration for delta > 0"):
        zero = _run(master_seed=901, eve_strategy="basis_mismatch", delta=0.0, reveal_fraction=1.0)
        assert zero.qber == 0.0
        for i, delta in enumerate((math.pi / 16, math.pi / 8, 3 * math.pi / 16)):
            report = _run(
                master_seed=902 + i,
                eve_strategy="basis_mismatch",
                delta=delta,
                reveal_fraction=1.0,
            )
            oracle = usd_suppress_b92(delta)["qber"]
            sigma = math.sqrt(oracle * (1 - oracle) / report.revealed)
            assert report.qber > 0.0
            assert abs(report.qber - oracle) <= 4 * sigma


def test_criterion_10_byte_identical_reports(tmp_path):
    with criterion(10, "identical configs produce byte-identical JSON reports"):
        config = {
            "protocol": "b92",
            "n_pulses": 20_000,
            "eve_strategy": "usd_suppress",
            "master_seed": 1001,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        command = [sys.executable, "-m", "qkdsim", "run", "--config", str(path)]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
        document = json.loads(first.stdout)
        assert document["tests"]["null_ratio_test"]["flagged"] is True
