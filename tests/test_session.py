"""The array engine against a hand-composed scalar pipeline, plus
determinism and substream-permutation properties."""

import numpy as np
import pytest

from qkdsim.adversary import ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import BASIS_LABELS, EVE_ACTION_LABELS, ProtocolKind
from qkdsim.session import (
    STAGE_ALICE,
    STAGE_BOB,
    STAGE_CHANNEL,
    STAGE_EVE,
    pulse_stream,
    simulate_session,
)
from qkdsim.usd import UsdSchemeKind
from reference import alice_prepare, bob_measure, channel_transmit, eve_apply

CASES = [
    ("b92-honest", ProtocolKind.B92, EveStrategy(EveKind.NONE), ChannelModel(0.1, 0.9)),
    ("bb84-honest", ProtocolKind.BB84, EveStrategy(EveKind.NONE), ChannelModel()),
    ("b92-ir", ProtocolKind.B92, EveStrategy(EveKind.INTERCEPT_RESEND), ChannelModel(0.2, 1.0)),
    ("bb84-ir", ProtocolKind.BB84, EveStrategy(EveKind.INTERCEPT_RESEND), ChannelModel(0.0, 0.8)),
    ("b92-usd-naive", ProtocolKind.B92, EveStrategy.of(EveKind.USD_SUPPRESS), ChannelModel()),
    (
        "b92-usd-optimal",
        ProtocolKind.B92,
        EveStrategy.of(EveKind.USD_SUPPRESS, UsdSchemeKind.OPTIMAL_IDP),
        ChannelModel(),
    ),
    (
        "b92-mismatch",
        ProtocolKind.B92,
        EveStrategy.of(EveKind.BASIS_MISMATCH, delta=0.3),
        ChannelModel(0.05, 0.95),
    ),
]


def _scalar_pulse(kind, strategy, channel, seed, index):
    """One pulse composed from the public per-stage operations."""
    alice = pulse_stream(seed, index, STAGE_ALICE)
    bit = alice.integers(2)
    if kind is ProtocolKind.B92:
        basis = None
        state = alice_prepare(kind, bit)
    else:
        basis = BASIS_LABELS[alice.integers(2)]
        state = alice_prepare(kind, bit, basis)

    forwarded, log = eve_apply(strategy, state, pulse_stream(seed, index, STAGE_EVE))
    if forwarded is not None:
        forwarded = channel_transmit(
            forwarded, channel, pulse_stream(seed, index, STAGE_CHANNEL)
        )

    bob = pulse_stream(seed, index, STAGE_BOB)
    if forwarded is not None:
        bob_basis, outcome = bob_measure(forwarded, bob)
    else:
        bob_basis, outcome = BASIS_LABELS[bob.integers(2)], "null"
    return bit, basis, log.action, forwarded is not None, bob_basis, outcome


@pytest.mark.parametrize("name,kind,strategy,channel", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_scalar_composition(name, kind, strategy, channel):
    """Array engine reproduces the per-pulse substream pipeline exactly."""
    n, seed = 400, 2024
    t = simulate_session(kind, n, channel, strategy, seed)
    for i in range(n):
        bit, basis, action, arrived, bob_basis, outcome = _scalar_pulse(
            kind, strategy, channel, seed, i
        )
        assert bit == t.alice_bits[i]
        if basis is not None:
            assert basis == BASIS_LABELS[t.alice_bases[i]]
        assert action == EVE_ACTION_LABELS[t.eve_actions[i]]
        assert arrived == bool(t.arrived[i])
        assert bob_basis == BASIS_LABELS[t.bob_bases[i]]
        engine_outcome = (
            "null" if not t.arrived[i] else ("minus" if t.bob_minus[i] else "plus")
        )
        assert outcome == engine_outcome


class TestDeterminism:
    def test_equal_seeds_equal_transcripts(self):
        for _, kind, strategy, channel in CASES[:3]:
            a = simulate_session(kind, 2_000, channel, strategy, 7)
            b = simulate_session(kind, 2_000, channel, strategy, 7)
            np.testing.assert_array_equal(a.alice_bits, b.alice_bits)
            np.testing.assert_array_equal(a.arrived, b.arrived)
            np.testing.assert_array_equal(a.bob_minus, b.bob_minus)

    def test_different_seeds_differ(self):
        a = simulate_session(ProtocolKind.B92, 2_000, ChannelModel(), EveStrategy(EveKind.NONE), 1)
        b = simulate_session(ProtocolKind.B92, 2_000, ChannelModel(), EveStrategy(EveKind.NONE), 2)
        assert not np.array_equal(a.alice_bits, b.alice_bits)

    def test_counts_consistent(self):
        strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
        t = simulate_session(ProtocolKind.B92, 5_000, ChannelModel(0.3, 0.7), strategy, 5)
        assert t.n_arrived + t.n_null == t.n_pulses
        assert np.sum(t.arrived & t.bob_minus) <= t.n_arrived

    def test_rejects_empty_session(self):
        with pytest.raises(ValueError):
            simulate_session(ProtocolKind.B92, 0, ChannelModel(), EveStrategy(EveKind.NONE), 1)


def test_statistics_invariant_under_substream_permutation():
    """Reassigning pulse indices permutes records without changing counts."""
    kind, channel = ProtocolKind.B92, ChannelModel(0.1, 0.9)
    strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
    n, seed = 600, 99
    engine = simulate_session(kind, n, channel, strategy, seed)

    permuted = [
        _scalar_pulse(kind, strategy, channel, seed, n - 1 - i) for i in range(n)
    ]
    assert sum(bit for bit, *_ in permuted) == int(np.sum(engine.alice_bits))
    assert sum(arr for *_, arr, _b, _o in permuted) == engine.n_arrived
    assert sum(o == "minus" for *_, o in permuted) == int(np.sum(engine.bob_minus))
