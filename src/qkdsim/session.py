"""End-to-end pulse pipeline: Alice -> Eve -> channel -> Bob.

Randomness contract: every pulse gets one substream per stage, seeded by
a stable hash of (master_seed, pulse index, stage tag), and each stage
consumes draws from its own substream in a fixed order:

    alice:   draw 0 bit, draw 1 basis (BB84 only)
    eve:     draw 0 frame (two-frame strategies only), then the outcome
    channel: draw 0 loss
    bob:     draw 0 basis, draw 1 outcome

Eve and Bob are both a `StageTable` read by one sampler, so the only
branch on Eve's strategy is in building her table. Because no stage ever
touches another pulse's stream, the session runs block by block: every
stage runs as numpy array operations over one block of `BLOCK` pulse
indices and writes its results into the block's slice of the transcript
columns, which are allocated at full length up front. The transcript does
not depend on the block size, and it is draw-for-draw identical to a
Python loop over `RngStream` substreams (both equivalences are pinned by
tests, the latter against a scalar reference). Transcripts are pure
functions of (configuration, master seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import ChannelModel, EveKind, EveStrategy
from .protocol import (
    EVE_MEASURED_RESENT,
    EVE_PASSED,
    EVE_SUPPRESSED,
    ProtocolKind,
    SessionTranscript,
)
from .quantum import (
    QubitState,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    born_probabilities,
    measurement_probs,
)
from .rng import RngStream, derive_seed, derive_seed_array, uniform_array
from .usd import UsdSchemeKind, idp_povm, naive_frame_povms

STAGE_ALICE = 0
STAGE_EVE = 1
STAGE_CHANNEL = 2
STAGE_BOB = 3
STAGE_ESTIMATE = 4
STAGE_SWEEP = 5

# Pulses per engine block. A block's few working arrays (indices, seeds,
# uniforms, the mixing temporary, table rows) take 8 bytes a pulse each,
# 256 KiB at this size, so together they fit in a 2 MiB L2 cache, where
# whole-session arrays (8 MB per 10^6 pulses) would stream through memory.
BLOCK = 1 << 15


def pulse_stream(master_seed: int, index: int, stage: int) -> RngStream:
    """The substream a given pulse and stage draw from."""
    return RngStream(derive_seed(master_seed, index, stage))


def protocol_states(kind: ProtocolKind) -> tuple[QubitState, ...]:
    """Alice's states in (basis, bit) order: BB84's state id is 2 * basis + bit."""
    if kind is ProtocolKind.B92:
        return (Z_PLUS, X_PLUS)
    return (Z_PLUS, Z_MINUS, X_PLUS, X_MINUS)


def _coin(u: np.ndarray) -> np.ndarray:
    # RngStream.integers(2) is min(int(u * 2), 1), which is 1 exactly when u >= 0.5
    return (u >= 0.5).view(np.int8)


@dataclass(frozen=True, eq=False)
class StageTable:
    """A measurement stage: row `state * n_frames + frame` holds the frame's
    cumulative Born probabilities on the state for all outcomes but the
    last, summed left to right as an inverse-CDF walk does (`thresholds`),
    and the state id each outcome forwards, -1 for none (`forward`). Rows
    of states that cannot enter the stage are never read; with no frames
    every state passes through unmeasured."""

    n_frames: int
    thresholds: np.ndarray
    forward: np.ndarray


def _stage_table(states: tuple[QubitState, ...], rows, frames) -> StageTable:
    """Table over `rows` (the state ids that can enter) for `frames`, each
    a pair (Born probabilities of a state, state forwarded per outcome or
    None)."""
    ids = {state: i for i, state in enumerate(states)}
    n_outcomes = len(frames[0][1]) if frames else 1
    thresholds = np.zeros((len(states) * len(frames), n_outcomes - 1))
    forward = np.full((len(states) * len(frames), n_outcomes), -1, dtype=np.int16)
    for state_id in rows:
        for f, (probs, targets) in enumerate(frames):
            row = state_id * len(frames) + f
            acc = 0.0
            for k, p in enumerate(probs(states[state_id])[:-1]):
                acc += p
                thresholds[row, k] = acc
            forward[row] = [-1 if t is None else ids[t] for t in targets]
    return StageTable(len(frames), thresholds, forward)


class _BasisProbs(dict):
    """`measurement_probs` per (state, basis), each computed once. Eve's
    intercept-resend table and Bob's table read the same pairs; one
    instance lives for one session, so it never grows past a few entries."""

    def __missing__(self, key: tuple[QubitState, str]) -> tuple[float, float]:
        self[key] = probs = measurement_probs(*key)
        return probs


def _basis_frames(basis_probs: _BasisProbs, resend: bool) -> tuple:
    """The projective z and x measurements; `resend` forwards the eigenstate found."""
    z, x = ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS)) if resend else ((None, None),) * 2
    return ((lambda s: basis_probs[s, "z"], z), (lambda s: basis_probs[s, "x"], x))


def _eve_frames(
    strategy: EveStrategy, basis_probs: _BasisProbs
) -> tuple[tuple, tuple[QubitState, ...]]:
    """Eve's frames and the states she can forward, in state-table order."""
    if strategy.kind is EveKind.NONE:
        return (), ()
    if strategy.kind is EveKind.INTERCEPT_RESEND:
        return _basis_frames(basis_probs, resend=True), (Z_PLUS, Z_MINUS, X_PLUS, X_MINUS)
    scheme = strategy.scheme
    if scheme.kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        z_frame, x_frame = naive_frame_povms(scheme.rotation)
        # a frame's "minus" rules out one state and so identifies the other
        frames = (
            (lambda s: born_probabilities(s, z_frame), (None, scheme.state1)),
            (lambda s: born_probabilities(s, x_frame), (None, scheme.state0)),
        )
    else:
        povm = idp_povm(scheme.state0, scheme.state1)
        frames = ((lambda s: born_probabilities(s, povm), (scheme.state0, scheme.state1, None)),)
    return frames, scheme.states()


def _sample_stage(
    table: StageTable, state_ids: np.ndarray, master_seed: int, idx: np.ndarray, stage: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame, outcome (int8) and forwarded state id (int16) of every pulse.

    Two frames: draw 0 picks the frame and draw 1 the outcome; one frame:
    draw 0 picks the outcome; no frames: no draws, the state passes on.
    """
    n = state_ids.shape[0]
    frame = np.zeros(n, dtype=np.int8)
    outcome = np.zeros(n, dtype=np.int8)
    if table.n_frames == 0:
        return frame, outcome, state_ids.copy()
    seeds = derive_seed_array(master_seed, idx, stage)
    if table.n_frames == 2:
        frame = _coin(uniform_array(seeds, 0))
    u = uniform_array(seeds, table.n_frames - 1)
    row = state_ids.astype(np.intp) * table.n_frames + frame
    for column in table.thresholds.T:
        outcome += u >= column.take(row)
    row *= table.forward.shape[1]
    row += outcome
    return frame, outcome, table.forward.take(row)


def simulate_session(
    kind: ProtocolKind,
    n_pulses: int,
    channel: ChannelModel,
    strategy: EveStrategy,
    master_seed: int,
) -> SessionTranscript:
    """Simulate one session; deterministic given (arguments, master seed)."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    sent_states = protocol_states(kind)
    basis_probs = _BasisProbs()
    eve_frames, resent = _eve_frames(strategy, basis_probs)
    states = tuple(dict.fromkeys(sent_states + resent))
    eve = _stage_table(states, range(len(sent_states)), eve_frames)
    enters_bob = np.unique(eve.forward[eve.forward >= 0]) if eve.n_frames else range(len(states))
    bob = _stage_table(states, enters_bob, _basis_frames(basis_probs, resend=False))
    forwarded_action = np.int8(EVE_MEASURED_RESENT if eve.n_frames else EVE_PASSED)

    alice_bits = np.empty(n_pulses, dtype=np.int8)
    alice_bases = None if kind is ProtocolKind.B92 else np.empty(n_pulses, dtype=np.int8)
    sent_ids = np.empty(n_pulses, dtype=np.int16)
    eve_actions = np.empty(n_pulses, dtype=np.int8)
    forwarded_ids = np.empty(n_pulses, dtype=np.int16)
    arrived = np.empty(n_pulses, dtype=bool)
    bob_bases = np.empty(n_pulses, dtype=np.int8)
    bob_minus = np.empty(n_pulses, dtype=bool)

    for a in range(0, n_pulses, BLOCK):
        b = min(a + BLOCK, n_pulses)
        idx = np.arange(a, b, dtype=np.uint64)

        seeds = derive_seed_array(master_seed, idx, STAGE_ALICE)
        alice_bits[a:b] = _coin(uniform_array(seeds, 0))
        sent = sent_ids[a:b]
        sent[:] = alice_bits[a:b]
        if alice_bases is not None:
            alice_bases[a:b] = _coin(uniform_array(seeds, 1))
            sent += 2 * alice_bases[a:b]

        _, _, forwarded = _sample_stage(eve, sent, master_seed, idx, STAGE_EVE)
        forwarded_ids[a:b] = forwarded
        reached = forwarded >= 0
        eve_actions[a:b] = np.where(reached, forwarded_action, np.int8(EVE_SUPPRESSED))

        seeds = derive_seed_array(master_seed, idx, STAGE_CHANNEL)
        reached &= uniform_array(seeds, 0) >= channel.loss_probability
        arrived[a:b] = reached

        # suppressed pulses never arrive, so the row Bob reads for them is immaterial
        frame, outcome, _ = _sample_stage(
            bob, np.maximum(forwarded, 0), master_seed, idx, STAGE_BOB
        )
        bob_bases[a:b] = frame
        bob_minus[a:b] = reached & (outcome == 1)

    return SessionTranscript(
        protocol=kind,
        channel=channel,
        strategy=strategy,
        master_seed=master_seed,
        n_pulses=n_pulses,
        alice_bits=alice_bits,
        alice_bases=alice_bases,
        sent_ids=sent_ids,
        state_table=states,
        eve_actions=eve_actions,
        forwarded_ids=forwarded_ids,
        arrived=arrived,
        bob_bases=bob_bases,
        bob_minus=bob_minus,
    )
