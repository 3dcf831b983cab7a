"""Preparation, measurement, sifting and error estimation."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumeration import b92_honest, bb84_honest
from qkdsim import protocol
from qkdsim.adversary import ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import EstimationError, ProtocolKind, estimate_qber, estimate_qber_batch
from qkdsim.quantum import X_MINUS, X_PLUS, Z_MINUS, Z_PLUS, measurement_probs
from qkdsim.rng import RngStream, derive_seed
from qkdsim.session import STAGE_ESTIMATE
from reference import (
    alice_prepare,
    bob_measure,
    one_session,
    sample_batch_positions,
    sample_positions,
    sample_without_replacement,
    sift_session,
)


def _honest_session(kind, n, seed, absorption=0.0, efficiency=1.0):
    return one_session(
        kind, n, ChannelModel(absorption, efficiency), EveStrategy(EveKind.NONE), seed
    )


def _honest_errors(kind, n, seed):
    """Disagreement bits of an honest lossless session."""
    return sift_session(_honest_session(kind, n, seed))


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
        errors = _honest_errors(ProtocolKind.B92, n, seed=9)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert len(errors) / n == pytest.approx(0.25, abs=4 * sigma)
        assert errors.dtype == bool and not errors.any()

    def test_b92_sifted_records_decode_unambiguously(self):
        """Every sifted pulse pairs (0, x-) or (1, z-) in honest sessions:
        Alice's bit is 1 minus Bob's basis id (z = 0, x = 1)."""
        t = _honest_session(ProtocolKind.B92, 2_000, seed=10)
        sifted = t.arrived & t.bob_minus
        assert np.count_nonzero(sifted) > 400
        np.testing.assert_array_equal(t.alice_bits[sifted], 1 - t.bob_bases[sifted])

    def test_bb84_honest_rate_and_agreement(self):
        n = 100_000
        errors = _honest_errors(ProtocolKind.BB84, n, seed=12)
        oracle = bb84_honest()["sift_rate"]
        sigma = math.sqrt(oracle * (1 - oracle) / n)
        assert len(errors) / n == pytest.approx(oracle, abs=4 * sigma)
        assert errors.dtype == bool and not errors.any()

    def test_all_lost_gives_empty_sift(self):
        t = one_session(
            ProtocolKind.B92, 500, ChannelModel(absorption=1.0), EveStrategy(EveKind.NONE), 3
        )
        assert len(sift_session(t)) == 0

    def test_sifted_subset_of_minus_outcomes(self):
        t = _honest_session(ProtocolKind.B92, 5_000, seed=14)
        assert len(sift_session(t)) == np.count_nonzero(t.arrived & t.bob_minus)

    @pytest.mark.parametrize(
        "kind,sifted", [(ProtocolKind.B92, [0, 4]), (ProtocolKind.BB84, [0, 2])], ids=["b92", "bb84"]
    )
    def test_only_arrived_pulses_are_sifted(self, kind, sifted):
        """Hand-built columns in which every unarrived pulse carries a Bob
        minus and a basis matching Alice's: `sift` drops those pulses, and
        keeps the arrived ones B92's minus or BB84's basis match sifts."""
        arrived = np.array([True, False, True, False, True, False])
        alice_bits = np.array([0, 1, 0, 1, 1, 0], dtype=np.int8)
        alice_bases = np.array([0, 1, 1, 0, 1, 0], dtype=np.int8)
        bob_bases = np.array([0, 1, 1, 0, 0, 0], dtype=np.int8)
        bob_minus = np.array([True, True, False, True, True, True])
        bases = alice_bases if kind is ProtocolKind.BB84 else None
        errors = protocol.sift(kind, alice_bits, bases, arrived, bob_bases, bob_minus)
        want = protocol.disagreements(kind, alice_bits, bob_bases, bob_minus)[sifted]
        assert errors.tolist() == want.tolist()

    @pytest.mark.parametrize("kind", [ProtocolKind.B92, ProtocolKind.BB84], ids=["b92", "bb84"])
    def test_disagreements_are_those_of_the_decoded_keys(self, kind):
        """The disagreement bits equal Alice's and Bob's decoded keys
        compared position by position, under intercept-resend and loss."""
        t = one_session(kind, 20_000, ChannelModel(0.1, 0.9), EveStrategy(EveKind.INTERCEPT_RESEND), 4)
        columns = (t.alice_bits, t.alice_bases, t.arrived, t.bob_bases, t.bob_minus)
        before = [None if c is None else c.copy() for c in columns]
        errors = sift_session(t)
        if kind is ProtocolKind.B92:
            indices = np.flatnonzero(t.arrived & t.bob_minus)
            bob_key = 1 - t.bob_bases[indices]
        else:
            indices = np.flatnonzero(t.arrived & (t.bob_bases == t.alice_bases))
            bob_key = t.bob_minus[indices].astype(np.int8)
        np.testing.assert_array_equal(errors, t.alice_bits[indices] != bob_key)
        assert errors.any()
        for c, b in zip(columns, before):  # sifting writes nothing
            np.testing.assert_array_equal(c, b)


def _revealed_counts(errors, m, k, seeds) -> list[int]:
    """`estimate_qber_batch`'s count of revealed disagreements per session,
    its fractions chosen to reveal exactly k[i] of m[i] sifted bits:
    ceil((k - 0.5) / m * m) is k for 1 <= k <= m."""
    m, k = np.asarray(m), np.asarray(k)
    fractions = np.where(m > 0, (k - 0.5) / np.maximum(m, 1), 0.5)
    wrong, revealed = estimate_qber_batch(errors, m, fractions, np.asarray(seeds, dtype=np.uint64))
    assert revealed.tolist() == k.tolist()
    return wrong.tolist()


def _assert_matches_oracle(m, k, seed):
    """The position sampler picks the scalar shuffle's positions and leaves
    the stream where it does; the counting sampler counts the disagreements
    at those positions, on random error bits."""
    oracle, engine = RngStream(seed), RngStream(seed)
    expected = sorted(sample_without_replacement(m, k, oracle))
    positions = sample_positions(m, k, engine)
    assert positions.tolist() == expected, (m, k, seed)
    assert engine._state == oracle._state, (m, k, seed)
    if k:
        errors = np.random.default_rng(seed).random(m) < 0.3
        want = int(np.count_nonzero(errors[positions]))
        assert _revealed_counts(errors, [m], [k], [seed]) == [want], (m, k, seed)


class TestRevealSampling:
    """The position sampler against the scalar Fisher-Yates oracle, draw for
    draw, and the counting sampler against the position sampler."""

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

    @pytest.mark.parametrize("m", [2**17 - 1, 2**17 + 1])
    def test_sizes_around_a_power_of_two_match_oracle(self, m):
        _assert_matches_oracle(m, m // 2, 11)

    @pytest.mark.parametrize("limit", [1, 2**17])
    def test_int64_positions_match_oracle(self, limit, monkeypatch):
        """The int64 path, taken from 2**31 sifted pulses on, forced by
        lowering the limit: to 1, and to 2**17, which m = 2**17 - 1 stays
        below."""
        monkeypatch.setattr(protocol, "INT32_POSITIONS", limit)
        for m in (2**17 - 1, 2**17, 2**17 + 1):
            _assert_matches_oracle(m, m // 3, 12)

    def test_one_hot_counts_pin_the_revealed_set(self):
        """With one disagreement, at position p, a session counts 1 exactly
        when the scalar shuffle reveals p: for every m <= 30, every k and
        every p as sessions of one batch, and every p alone at k = ceil(m / 2)."""
        cases = random.Random(20261019)
        for m in range(1, 31):
            sessions = [(k, p, cases.getrandbits(64)) for k in range(1, m + 1) for p in range(m)]
            k, p, seeds = zip(*sessions)
            errors = np.zeros((len(sessions), m), dtype=bool)
            errors[np.arange(len(sessions)), p] = True
            counts = _revealed_counts(errors.ravel(), np.full(len(sessions), m), k, seeds)
            for (k, p, seed), count in zip(sessions, counts):
                revealed = sample_without_replacement(m, k, RngStream(seed))
                assert count == (p in revealed), (m, k, p, seed)
            for p in range(m):
                seed = cases.getrandbits(64)
                one_hot = np.arange(m) == p
                qber, k = estimate_qber(one_hot, 0.5, seed)
                assert k == math.ceil(m / 2)
                assert qber * k == (p in sample_without_replacement(m, k, RngStream(seed)))


class TestEstimateQber:
    def test_honest_sessions_have_zero_qber(self):
        for seed in range(5):
            errors = _honest_errors(ProtocolKind.B92, 20_000, seed=seed)
            qber, _ = estimate_qber(errors, 0.5, derive_seed(seed, 0, STAGE_ESTIMATE))
            assert qber == 0.0

    def test_reveal_count_is_ceiling(self):
        errors = _honest_errors(ProtocolKind.B92, 10_000, seed=2)
        for fraction in (0.1, 0.25, 0.333, 1.0):
            _, revealed = estimate_qber(errors, fraction, 0)
            assert revealed == math.ceil(fraction * len(errors))

    def test_full_reveal_empties_key(self):
        """A full reveal picks every position, so it counts every disagreement."""
        m = 5_000
        np.testing.assert_array_equal(sample_positions(m, m, RngStream(1)), np.arange(m))
        errors = np.random.default_rng(4).random(m) < 0.2
        assert estimate_qber(errors, 1.0, 1) == (np.count_nonzero(errors) / m, m)

    def test_revealed_indices_are_sifted_indices(self):
        """Revealed positions are distinct positions of the sifted key, sorted."""
        m = 5_000
        revealed = sample_positions(m, math.ceil(0.3 * m), RngStream(2))
        assert np.all(np.diff(revealed) > 0)
        assert 0 <= revealed[0] and revealed[-1] < m

    def test_qber_is_the_revealed_disagreement_rate(self):
        errors = np.zeros(1_000, dtype=bool)
        errors[::7] = True
        before = errors.copy()
        qber, revealed = estimate_qber(errors, 0.4, 3)
        positions = sample_positions(len(errors), revealed, RngStream(3))
        assert qber == np.count_nonzero(errors[positions]) / revealed > 0.0
        np.testing.assert_array_equal(errors, before)

    def test_empty_sift_raises(self):
        t = one_session(
            ProtocolKind.B92, 100, ChannelModel(absorption=1.0), EveStrategy(EveKind.NONE), 3
        )
        with pytest.raises(EstimationError):
            estimate_qber(sift_session(t), 0.5, 0)

    def test_bad_fraction_rejected(self):
        errors = _honest_errors(ProtocolKind.B92, 1_000, seed=8)
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                estimate_qber(errors, fraction, 0)

    def test_estimation_deterministic(self):
        a = _honest_errors(ProtocolKind.BB84, 10_000, seed=15)
        b = _honest_errors(ProtocolKind.BB84, 10_000, seed=15)
        a[::5] = True
        b[::5] = True
        seed = derive_seed(15, 0, STAGE_ESTIMATE)
        assert estimate_qber(a, 0.2, seed) == estimate_qber(b, 0.2, seed)


@st.composite
def _reveal_session(draw):
    """(m, k, seed): k = m and k = 1 are drawn often, m = 0 reveals nothing."""
    m = draw(st.integers(0, 120))
    k = 0 if m == 0 else draw(st.sampled_from([1, m]) | st.integers(1, m))
    return m, k, draw(st.integers(0, 2**64 - 1))


def _one_by_one(sessions) -> list[int]:
    """Each session's positions from its own stream, shifted past the
    sessions before it."""
    positions, offset = [], 0
    for m, k, seed in sessions:
        if m:
            positions += (sample_positions(m, k, RngStream(seed)) + offset).tolist()
        offset += m
    return positions


class TestBatchRevealSampling:
    """The batch samplers against the one-session sampler, session by session."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(_reveal_session(), min_size=1, max_size=12))
    @example([(0, 0, 0), (1, 1, 2**64 - 1), (7, 7, 3), (9, 1, 4), (0, 0, 5)])
    def test_positions_equal_each_session_sampled_alone(self, sessions):
        """The position sampler's batch picks each session's positions, and
        the counting sampler counts the disagreements at them."""
        m, k, seeds = zip(*sessions)
        m, k, seeds = np.array(m), np.array(k), np.array(seeds, dtype=np.uint64)
        positions = sample_batch_positions(m, k, seeds)
        assert positions.tolist() == _one_by_one(sessions)
        errors = np.random.default_rng(seeds.tolist()).random(m.sum()) < 0.4
        wrong = np.cumsum(np.concatenate([[0], errors[positions]]))
        ends = np.cumsum(k)
        assert _revealed_counts(errors, m, k, seeds) == (wrong[ends] - wrong[ends - k]).tolist()

    def test_estimates_equal_each_session_estimated_alone(self):
        cases = random.Random(20261018)
        sifted = np.array([cases.choice((0, 1, 2, 3, 40, 333)) for _ in range(60)])
        fractions = np.array([cases.choice((0.01, 0.2, 0.3, 0.5, 1.0)) for _ in sifted])
        seeds = np.array([cases.getrandbits(64) for _ in sifted], dtype=np.uint64)
        errors = np.array([cases.random() < 0.3 for _ in range(sifted.sum())])
        wrong, revealed = estimate_qber_batch(errors, sifted, fractions, seeds)
        assert wrong.dtype == revealed.dtype == np.int64
        starts = np.concatenate([[0], np.cumsum(sifted)])
        for i, (m, fraction, seed) in enumerate(zip(sifted, fractions, seeds.tolist())):
            if m == 0:
                assert revealed[i] == 0 and wrong[i] == 0
                continue
            alone = errors[starts[i] : starts[i + 1]]
            assert (wrong[i] / revealed[i], revealed[i]) == estimate_qber(alone, fraction, seed)
        assert 0 < wrong.max() and np.count_nonzero(sifted == 0) > 0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            estimate_qber_batch(
                np.zeros(3, bool), np.array([1, 2]), np.array([0.5, 0.0]), np.zeros(2, np.uint64)
            )
