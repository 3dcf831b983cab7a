"""Channel loss and Eve's strategies: signatures, symmetry, forwarding."""

import math
from dataclasses import fields

import numpy as np
import pytest

from enumeration import (
    channel_loss_probability,
    intercept_resend_b92,
    intercept_resend_bb84,
    usd_suppress_b92,
)
from qkdsim.adversary import HALF_PI, ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import ProtocolKind, estimate_qber
from qkdsim.quantum import B92_STATES, X_PLUS, Z_PLUS
from qkdsim.rng import RngStream, derive_seed
from qkdsim.session import STAGE_ESTIMATE
from qkdsim.usd import UsdSchemeKind, frame_kets, usd_efficiency
from reference import channel_transmit, eve_apply, one_session, scalar_rotate_y, sift_session
from reference import state_label, symmetry

LOSSLESS = ChannelModel()


def _run(kind, n, strategy, seed, channel=LOSSLESS, reveal=1.0):
    """A session's batch, its sifted count, QBER and revealed count."""
    t = one_session(kind, n, channel, strategy, seed)
    errors = sift_session(t)
    qber, revealed = estimate_qber(errors, reveal, derive_seed(seed, 0, STAGE_ESTIMATE))
    return t, len(errors), qber, revealed


class TestChannel:
    def test_perfect_channel_never_loses(self):
        rng = RngStream(1)
        assert all(
            channel_transmit(Z_PLUS, LOSSLESS, rng) is Z_PLUS for _ in range(1_000)
        )

    def test_full_absorption_always_loses(self):
        rng = RngStream(2)
        channel = ChannelModel(absorption=1.0)
        assert all(channel_transmit(Z_PLUS, channel, rng) is None for _ in range(1_000))

    def test_loss_frequency_matches_closed_form(self):
        n = 100_000
        channel = ChannelModel(absorption=0.1, efficiency=0.8)
        expected = channel_loss_probability(0.1, 0.8)
        assert expected == pytest.approx(0.28)
        t = one_session(ProtocolKind.B92, n, channel, EveStrategy(EveKind.NONE), 5)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert (n - np.count_nonzero(t.arrived)) / n == pytest.approx(expected, abs=4 * sigma)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelModel(absorption=1.5)
        with pytest.raises(ValueError):
            ChannelModel(efficiency=-0.1)


class TestEveApply:
    def test_none_passes_state_through(self):
        state, log = eve_apply(EveStrategy(EveKind.NONE), X_PLUS, RngStream(0))
        assert state is X_PLUS
        assert log.action == "passed"

    def test_intercept_resend_forwards_eigenstates(self):
        rng = RngStream(3)
        for _ in range(500):
            state, log = eve_apply(EveStrategy(EveKind.INTERCEPT_RESEND), X_PLUS, rng)
            assert state_label(state) in ("z+", "z-", "x+", "x-")
            assert log.action == "measured-resent"

    def test_usd_suppress_forwards_exact_copies(self):
        """Conclusive pulses carry bit-identical copies of the sent state."""
        rng = RngStream(4)
        strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
        forwarded = 0
        n = 20_000
        for _ in range(n):
            state, log = eve_apply(strategy, Z_PLUS, rng)
            if state is not None:
                forwarded += 1
                assert (state.amp0, state.amp1) == (Z_PLUS.amp0, Z_PLUS.amp1)
                assert log.conclusive == 0
            else:
                assert log.action == "suppressed"
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert forwarded / n == pytest.approx(0.25, abs=4 * sigma)

    def test_basis_mismatch_zero_delta_equals_usd_suppress(self):
        """delta = 0 reproduces the matched attack draw for draw."""
        a = EveStrategy.of(EveKind.USD_SUPPRESS)
        b = EveStrategy.of(EveKind.BASIS_MISMATCH, delta=0.0)
        for seed in range(20):
            sa, la = eve_apply(a, X_PLUS, RngStream(seed))
            sb, lb = eve_apply(b, X_PLUS, RngStream(seed))
            assert la == lb
            if sa is None:
                assert sb is None
            else:
                assert (sa.amp0, sa.amp1) == (sb.amp0, sb.amp1)

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="delta"):
            EveStrategy.of(EveKind.BASIS_MISMATCH, delta=2.0)
        with pytest.raises(ValueError, match="scheme"):
            EveStrategy(kind=EveKind.USD_SUPPRESS, scheme=None)
        with pytest.raises(ValueError, match="none takes no discrimination scheme"):
            EveStrategy(EveKind.NONE, UsdSchemeKind.NAIVE_RANDOM_BASIS)
        for kind, scheme in (
            (EveKind.NONE, None),
            (EveKind.INTERCEPT_RESEND, None),
            (EveKind.USD_SUPPRESS, UsdSchemeKind.NAIVE_RANDOM_BASIS),
            (EveKind.USD_SUPPRESS, UsdSchemeKind.OPTIMAL_IDP),
        ):
            with pytest.raises(ValueError, match=f"^{kind.value} does not rotate Eve's frame$"):
                EveStrategy(kind, scheme, 0.3)


class TestStrategy:
    def test_three_flat_values(self):
        assert [f.name for f in fields(EveStrategy)] == ["kind", "scheme", "rotation"]

    def test_only_the_mismatch_attack_rotates(self):
        assert EveStrategy.of(EveKind.USD_SUPPRESS, UsdSchemeKind.OPTIMAL_IDP, 0.3).rotation == 0.0
        assert EveStrategy.of(EveKind.BASIS_MISMATCH, UsdSchemeKind.OPTIMAL_IDP, 0.3).rotation == 0.3

    def test_honest_kinds_carry_no_scheme(self):
        for kind in (EveKind.NONE, EveKind.INTERCEPT_RESEND):
            assert EveStrategy.of(kind, UsdSchemeKind.OPTIMAL_IDP, 0.3) == EveStrategy(kind)

    def test_states_are_the_standard_pair_in_her_frame(self):
        strategy = EveStrategy.of(EveKind.BASIS_MISMATCH, delta=0.3)
        assert strategy.states() == (scalar_rotate_y(Z_PLUS, 0.3), scalar_rotate_y(X_PLUS, 0.3))
        assert EveStrategy.of(EveKind.USD_SUPPRESS).states() == (Z_PLUS, X_PLUS)

    def test_batch_rotation_equals_each_strategys_states(self):
        """The plus kets of `frame_kets`, which the engine rotates once per
        batch, are each strategy's `states()` bit for bit, at 0, the
        smallest subnormal and 1,000 deltas up to the largest below pi/2."""
        deltas = [0.0, 5e-324, 1e-300, math.nextafter(HALF_PI, 0.0)]
        deltas += np.linspace(0.0, HALF_PI, 1_000, endpoint=False).tolist()
        pairs = frame_kets(deltas)[:, :, 0]
        for delta, pair in zip(deltas, pairs):
            states = EveStrategy.of(EveKind.BASIS_MISMATCH, delta=delta).states()
            want = np.array([s.vector for s in states])
            assert np.array_equal(pair.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(pairs[0], [s.vector for s in B92_STATES])


class TestSuppressSignatures:
    def test_zero_error_for_all_seeds(self):
        """Suppression never creates a sifted disagreement."""
        for scheme in UsdSchemeKind:
            for seed in range(10):
                _, _, qber, _ = _run(
                    ProtocolKind.B92, 20_000, EveStrategy(EveKind.USD_SUPPRESS, scheme), seed
                )
                assert qber == 0.0

    def test_arrival_rate_matches_efficiency(self):
        n = 100_000
        rates = {}
        for scheme in UsdSchemeKind:
            t, *_ = _run(ProtocolKind.B92, n, EveStrategy(EveKind.USD_SUPPRESS, scheme), 21)
            (eta,) = usd_efficiency(scheme, np.array([[Z_PLUS.vector, X_PLUS.vector]])).tolist()
            sigma = math.sqrt(eta * (1 - eta) / n)
            rate = np.count_nonzero(t.arrived) / n
            assert rate == pytest.approx(eta, abs=4 * sigma)
            rates[scheme.value] = rate
        assert 0.25 < rates["optimal"] < 1.0
        assert rates["optimal"] > rates["naive"]

    def test_forwarded_state_symmetry(self):
        n = 100_000
        t, *_ = _run(ProtocolKind.B92, n, EveStrategy.of(EveKind.USD_SUPPRESS), 22)
        count_z, count_x = symmetry(t)
        total = count_z + count_x
        assert total == np.count_nonzero(t.arrived)  # lossless channel
        assert abs(count_z - count_x) <= 4.0 * math.sqrt(total / 4.0)

    def test_honest_forward_counts_match_sent_distribution(self):
        t, *_ = _run(ProtocolKind.B92, 50_000, EveStrategy(EveKind.NONE), 23)
        count_z, count_x = symmetry(t)
        assert count_z == int(np.sum(t.alice_bits == 0))
        assert count_x == int(np.sum(t.alice_bits == 1))

    def test_all_z_plus_stream_has_no_x_forwards(self):
        strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
        rng = RngStream(7)
        labels = [state_label(s) for s, _ in
                  (eve_apply(strategy, Z_PLUS, rng) for _ in range(5_000)) if s is not None]
        assert labels.count("x+") == 0


class TestInterceptResend:
    def test_b92_qber_matches_oracle(self):
        n = 100_000
        oracle = intercept_resend_b92()
        _, sifted, qber, revealed = _run(
            ProtocolKind.B92, n, EveStrategy(EveKind.INTERCEPT_RESEND), 31
        )
        sigma = math.sqrt(oracle["qber"] * (1 - oracle["qber"]) / revealed)
        assert qber == pytest.approx(oracle["qber"], abs=4 * sigma)
        rate_sigma = math.sqrt(oracle["sift_rate"] * (1 - oracle["sift_rate"]) / n)
        assert sifted / n == pytest.approx(
            oracle["sift_rate"], abs=4 * rate_sigma
        )

    def test_bb84_qber_matches_oracle(self):
        n = 100_000
        oracle = intercept_resend_bb84()
        assert oracle["qber"] == pytest.approx(0.25)
        _, _, qber, revealed = _run(
            ProtocolKind.BB84, n, EveStrategy(EveKind.INTERCEPT_RESEND), 32
        )
        sigma = math.sqrt(0.25 * 0.75 / revealed)
        assert qber == pytest.approx(0.25, abs=4 * sigma)


class TestBasisMismatch:
    @pytest.mark.parametrize("delta", [math.pi / 16, math.pi / 8, 3 * math.pi / 16])
    def test_positive_delta_creates_errors_matching_oracle(self, delta):
        n = 100_000
        oracle = usd_suppress_b92(delta)["qber"]
        _, _, qber, revealed = _run(
            ProtocolKind.B92, n, EveStrategy.of(EveKind.BASIS_MISMATCH, delta=delta), 33
        )
        sigma = math.sqrt(oracle * (1 - oracle) / revealed)
        assert qber > 0.0
        assert qber == pytest.approx(oracle, abs=4 * sigma)

    def test_zero_delta_is_error_free(self):
        _, _, qber, _ = _run(
            ProtocolKind.B92, 50_000, EveStrategy.of(EveKind.BASIS_MISMATCH, delta=0.0), 34
        )
        assert qber == 0.0

    def test_frozen_oracle_values(self):
        """Spot values pinned once, independently of the simulator."""
        assert usd_suppress_b92(math.pi / 16)["qber"] == pytest.approx(0.0384011, abs=1e-6)
        assert usd_suppress_b92(math.pi / 8)["qber"] == pytest.approx(0.1504969, abs=1e-6)
        assert usd_suppress_b92(3 * math.pi / 16)["qber"] == pytest.approx(0.3189432, abs=1e-6)
        assert usd_suppress_b92(0.0)["qber"] == pytest.approx(0.0, abs=1e-12)
