"""Preparation, measurement, sifting and error estimation."""

import math
import random

import numpy as np
import pytest

from enumeration import b92_honest, bb84_honest
from qkdsim.adversary import ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import (
    EstimationError,
    ProtocolKind,
    PulseRecord,
    _sample_without_replacement,
    estimate_qber,
    sift,
)
from qkdsim.quantum import X_MINUS, X_PLUS, Z_MINUS, Z_PLUS, measurement_probs
from qkdsim.rng import RngStream
from qkdsim.session import STAGE_ESTIMATE, pulse_stream, simulate_session
from reference import alice_prepare, bob_measure, sample_without_replacement


def _honest_session(kind, n, seed, absorption=0.0, efficiency=1.0):
    transcript = simulate_session(
        kind, n, ChannelModel(absorption, efficiency), EveStrategy(EveKind.NONE), seed
    )
    sift(kind, transcript)
    return transcript


class TestAlicePrepare:
    def test_b92_encoding(self):
        assert alice_prepare(ProtocolKind.B92, 0) is Z_PLUS
        assert alice_prepare(ProtocolKind.B92, 1) is X_PLUS

    def test_bb84_encoding(self):
        assert alice_prepare(ProtocolKind.BB84, 0, "z") is Z_PLUS
        assert alice_prepare(ProtocolKind.BB84, 1, "z") is Z_MINUS
        assert alice_prepare(ProtocolKind.BB84, 0, "x") is X_PLUS
        assert alice_prepare(ProtocolKind.BB84, 1, "x") is X_MINUS

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            alice_prepare(ProtocolKind.B92, 2)

    def test_bb84_requires_basis(self):
        with pytest.raises(ValueError):
            alice_prepare(ProtocolKind.BB84, 0)


class _FixedStream:
    """Stand-in stream yielding preset uniforms (for forcing branches)."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self):
        return self._values.pop(0)

    def integers(self, n):
        return min(int(self.uniform() * n), n - 1)


class TestBobMeasure:
    def test_forced_z_basis_on_eigenstate(self):
        # first draw picks the basis (0 -> z), second the outcome
        basis, outcome = bob_measure(Z_PLUS, _FixedStream([0.0, 0.9]))
        assert (basis, outcome) == ("z", "plus")

    def test_forced_x_basis_is_fair_on_z_plus(self):
        assert measurement_probs(Z_PLUS, "x") == pytest.approx((0.5, 0.5), abs=1e-12)
        basis, outcome = bob_measure(Z_PLUS, _FixedStream([0.9, 0.4]))
        assert (basis, outcome) == ("x", "plus")
        basis, outcome = bob_measure(Z_PLUS, _FixedStream([0.9, 0.6]))
        assert (basis, outcome) == ("x", "minus")

    def test_minus_rate_honest_b92(self):
        """Empirical minus rate over all pulses matches the enumeration oracle."""
        n = 100_000
        transcript = _honest_session(ProtocolKind.B92, n, seed=5)
        oracle = b92_honest()["sift_rate"]
        sigma = math.sqrt(oracle * (1 - oracle) / n)
        assert np.sum(transcript.bob_minus) / n == pytest.approx(oracle, abs=4 * sigma)


class TestSift:
    def test_b92_honest_rate_and_agreement(self):
        n = 100_000
        transcript = _honest_session(ProtocolKind.B92, n, seed=9)
        rate = len(transcript.sifted_indices) / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert rate == pytest.approx(0.25, abs=4 * sigma)
        np.testing.assert_array_equal(transcript.alice_key, transcript.bob_key)

    def test_b92_sifted_records_decode_unambiguously(self):
        """Every sifted record pairs (0, x-) or (1, z-) in honest sessions."""
        transcript = _honest_session(ProtocolKind.B92, 2_000, seed=10)
        for i in transcript.sifted_indices[:200]:
            record = transcript.record(int(i))
            assert record.bob_outcome == "minus"
            expected_basis = "x" if record.alice_bit == 0 else "z"
            assert record.bob_basis == expected_basis

    def test_bb84_honest_rate_and_agreement(self):
        n = 100_000
        transcript = _honest_session(ProtocolKind.BB84, n, seed=12)
        oracle = bb84_honest()["sift_rate"]
        sigma = math.sqrt(oracle * (1 - oracle) / n)
        assert len(transcript.sifted_indices) / n == pytest.approx(oracle, abs=4 * sigma)
        np.testing.assert_array_equal(transcript.alice_key, transcript.bob_key)

    def test_all_lost_gives_empty_sift(self):
        transcript = simulate_session(
            ProtocolKind.B92, 500, ChannelModel(absorption=1.0), EveStrategy(EveKind.NONE), 3
        )
        indices = sift(ProtocolKind.B92, transcript)
        assert len(indices) == 0

    def test_sifted_subset_of_minus_outcomes(self):
        transcript = _honest_session(ProtocolKind.B92, 5_000, seed=14)
        minus = set(np.nonzero(transcript.arrived & transcript.bob_minus)[0])
        assert set(transcript.sifted_indices.tolist()) <= minus


def _assert_matches_oracle(m, k, seed):
    oracle, engine = RngStream(seed), RngStream(seed)
    expected = sorted(sample_without_replacement(m, k, oracle))
    positions = _sample_without_replacement(m, k, engine)
    assert positions.tolist() == expected, (m, k, seed)
    assert engine._state == oracle._state, (m, k, seed)


class TestRevealSampling:
    """The array sampler against the scalar Fisher-Yates oracle, draw for draw."""

    def test_random_cases_match_oracle(self):
        cases = random.Random(20260101)
        for _ in range(1_200):
            m = cases.choice((2, 3, 5, 17, 64, 257, 1_000, 4_099))
            k = cases.randint(1, m)
            _assert_matches_oracle(m, k, cases.getrandbits(64))

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_edges_match_oracle(self, seed):
        for m in (1, 2, 9, 1_000):
            for k in sorted({0, 1, m - 1, m}):
                _assert_matches_oracle(m, k, seed)

    def test_large_reveal_matches_oracle(self):
        _assert_matches_oracle(200_000, 100_000, 7)


class TestEstimateQber:
    def test_honest_sessions_have_zero_qber(self):
        for seed in range(5):
            transcript = _honest_session(ProtocolKind.B92, 20_000, seed=seed)
            qber, _ = estimate_qber(transcript, 0.5, pulse_stream(seed, 0, STAGE_ESTIMATE))
            assert qber == 0.0

    def test_reveal_count_is_ceiling(self):
        for fraction in (0.1, 0.25, 0.333, 1.0):
            transcript = _honest_session(ProtocolKind.B92, 10_000, seed=2)
            m = len(transcript.sifted_indices)
            _, revealed = estimate_qber(transcript, fraction, RngStream(0))
            assert len(revealed) == math.ceil(fraction * m)
            assert len(transcript.alice_key) == m - len(revealed)

    def test_full_reveal_empties_key(self):
        transcript = _honest_session(ProtocolKind.B92, 5_000, seed=4)
        estimate_qber(transcript, 1.0, RngStream(1))
        assert len(transcript.alice_key) == 0
        assert len(transcript.bob_key) == 0

    def test_revealed_indices_are_sifted_indices(self):
        transcript = _honest_session(ProtocolKind.B92, 5_000, seed=6)
        sifted = set(transcript.sifted_indices.tolist())
        _, revealed = estimate_qber(transcript, 0.3, RngStream(2))
        assert set(revealed.tolist()) <= sifted
        assert len(set(revealed.tolist())) == len(revealed)

    def test_empty_sift_raises(self):
        transcript = simulate_session(
            ProtocolKind.B92, 100, ChannelModel(absorption=1.0), EveStrategy(EveKind.NONE), 3
        )
        sift(ProtocolKind.B92, transcript)
        with pytest.raises(EstimationError):
            estimate_qber(transcript, 0.5, RngStream(0))

    def test_bad_fraction_rejected(self):
        transcript = _honest_session(ProtocolKind.B92, 1_000, seed=8)
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                estimate_qber(transcript, fraction, RngStream(0))

    def test_estimation_deterministic(self):
        a = _honest_session(ProtocolKind.B92, 10_000, seed=15)
        b = _honest_session(ProtocolKind.B92, 10_000, seed=15)
        _, rev_a = estimate_qber(a, 0.2, pulse_stream(15, 0, STAGE_ESTIMATE))
        _, rev_b = estimate_qber(b, 0.2, pulse_stream(15, 0, STAGE_ESTIMATE))
        np.testing.assert_array_equal(rev_a, rev_b)


class TestPulseRecord:
    def test_lost_pulse_must_be_null(self):
        with pytest.raises(ValueError, match="null"):
            PulseRecord(0, 0, None, Z_PLUS, "passed", "z+", False, "z", "plus")

    def test_suppressed_pulse_cannot_arrive(self):
        with pytest.raises(ValueError, match="suppressed"):
            PulseRecord(0, 0, None, Z_PLUS, "suppressed", None, True, "z", "plus")

    def test_records_roundtrip_transcript(self):
        transcript = _honest_session(ProtocolKind.BB84, 300, seed=16, absorption=0.2)
        records = transcript.records()
        assert len(records) == 300
        for record in records[:50]:
            assert record.arrived == bool(transcript.arrived[record.index])
            if not record.arrived:
                assert record.bob_outcome == "null"
