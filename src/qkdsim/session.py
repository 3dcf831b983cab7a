"""End-to-end pulse pipeline: Alice -> Eve -> channel -> Bob.

Randomness contract: every pulse gets one substream per stage, seeded by
a stable hash of (master_seed, pulse index, stage tag), and each stage
consumes draws from its own substream in a fixed order:

    alice:   draw 0 bit, draw 1 basis (BB84 only)
    eve:     draw 0 frame (two-frame strategies only), then the outcome
    channel: draw 0 loss
    bob:     draw 0 basis, draw 1 outcome

Eve and Bob are both a `StageTable` read by one sampler, so the only
branch on Eve's strategy is in choosing her POVM elements. A batch has
one Eve table and one Bob table: the elements of all its distinct
strategies are built as one array by `usd`'s batch builders, with no
per-strategy `Povm` object, checked once, and turned into every row by
one stacked Born product and one running sum. Because no stage ever
touches another pulse's stream, the engine runs a *batch* of sessions
(one protocol, one Eve kind and discrimination scheme; any lengths,
channels, deltas and master seeds) as one pulse range cut into blocks of
`BLOCK` pulses. Every stage runs as numpy array operations over a block
and writes its results into the block's slice of the batch's columns,
allocated at full length up front; the returned `SessionBatch` is the
only record of a session. Each pulse draws from its own session's master
seed at its index within that session, loses with its session's loss
probability and reads its session's rows of the stacked stage tables, so
a session's slice of the columns is the same whatever batch it runs in
and whatever the block size. A single run is a batch of one, and its
columns are draw-for-draw identical to a Python loop over `RngStream`
substreams (all three equivalences are pinned by tests, the last against
a scalar reference). The columns are pure functions of (configuration,
master seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import ChannelModel, EveKind, EveStrategy
from .protocol import ProtocolKind
from .quantum import (
    SX_POVM,
    SZ_POVM,
    QubitState,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    _check_operators,
)
from .rng import RngStream, derive_seed, derive_seed_array, uniform_array
from .usd import UsdSchemeKind, idp_elements, naive_frame_elements

# not called here; kept because bench/tracing.py wraps these four names on this module
from .quantum import born_probabilities, measurement_probs  # noqa: F401
from .usd import idp_povm, naive_frame_povms  # noqa: F401

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
    and the state id each outcome forwards, -1 for none (`forward`). Every
    state has a row, read or not; with no frames every state passes
    through unmeasured."""

    n_frames: int
    thresholds: np.ndarray
    forward: np.ndarray


# Bob's z and x frames, shape (frames, outcomes, 2, 2); intercept-resend measures in them too
_BASES = np.array([SZ_POVM.elements, SX_POVM.elements])


def _stage_table(vectors: np.ndarray, elements: np.ndarray, forward: np.ndarray) -> StageTable:
    """Table of the states `vectors`, shape (rows, 2), each under its own
    frames: `elements` has shape (rows or 1, frames, outcomes, 2, 2), and
    `forward`, shape (rows or 1, frames, outcomes), the state id each
    outcome forwards.

    All rows come from one stacked Born product <v|E v>, in
    `born_probabilities`' operation order and clamped as it clamps, so
    each row equals that function's output bit for bit.
    """
    n_rows = len(vectors) * elements.shape[1]
    n_outcomes = elements.shape[2]
    v = vectors.reshape(-1, 1, 1, 2, 1)
    probs = np.clip((v.conj().swapaxes(-1, -2) @ (elements @ v)).real, 0.0, 1.0)
    thresholds = np.cumsum(probs[..., :-1, 0, 0], axis=-1).reshape(n_rows, n_outcomes - 1)
    forward = np.broadcast_to(forward, (len(vectors),) + elements.shape[1:3])
    return StageTable(elements.shape[1], thresholds, forward.reshape(n_rows, n_outcomes))


def _eve_measurement(strategies: list[EveStrategy]) -> tuple[np.ndarray, list, list]:
    """Eve's elements for each of `strategies` (one kind and scheme kind),
    shape (strategies, frames, outcomes, 2, 2), and per strategy the state
    each frame's outcomes forward and the states she can forward."""
    n = len(strategies)
    kind = strategies[0].kind
    if kind is EveKind.NONE:
        return np.empty((n, 0, 1, 2, 2), dtype=complex), [()] * n, [()] * n
    if kind is EveKind.INTERCEPT_RESEND:
        # she resends the eigenstate she found
        eigenstates = ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS))
        elements = np.broadcast_to(_BASES, (n,) + _BASES.shape)
        return elements, [eigenstates] * n, [eigenstates[0] + eigenstates[1]] * n
    pairs = [s.states() for s in strategies]
    if strategies[0].scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        # a frame's "minus" rules out one state and so identifies the other
        elements = naive_frame_elements([s.rotation for s in strategies])
        targets = [((None, state1), (None, state0)) for state0, state1 in pairs]
    else:
        elements = idp_elements(pairs)
        targets = [((state0, state1, None),) for state0, state1 in pairs]
    _check_operators(elements, "POVM element", complete=True)
    return elements, targets, pairs


def _sample_stage(
    table: StageTable,
    state_ids: np.ndarray,
    base,
    keys: np.ndarray,
    stage: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame, outcome (int8) and forwarded state id (int16) of every pulse.

    `state_ids` and the forwarded ids number the states of each pulse's
    own session; `base` is that session's first row block in the stacked
    table, and `keys` are the pulses' stream keys (see `_block_sessions`).
    Two frames: draw 0 picks the frame and draw 1 the outcome; one frame:
    draw 0 picks the outcome; no frames: no draws, the state passes on.
    """
    n = state_ids.shape[0]
    frame = np.zeros(n, dtype=np.int8)
    outcome = np.zeros(n, dtype=np.int8)
    if table.n_frames == 0:
        return frame, outcome, state_ids.copy()
    seeds = derive_seed_array(0, keys, stage)
    if table.n_frames == 2:
        frame = _coin(uniform_array(seeds, 0))
    u = uniform_array(seeds, table.n_frames - 1)
    del seeds
    row = state_ids.astype(np.intp)
    row += base
    row *= table.n_frames
    row += frame
    for column in table.thresholds.T:
        outcome += u >= column.take(row)
    row *= table.forward.shape[1]
    row += outcome
    return frame, outcome, table.forward.take(row)


@dataclass(frozen=True)
class Session:
    """One session of a batch: its length, channel, Eve and master seed."""

    n_pulses: int
    channel: ChannelModel
    strategy: EveStrategy
    master_seed: int


@dataclass
class SessionBatch:
    """Column-wise record of consecutive sessions of one protocol.

    Session i owns pulses `starts[i]:starts[i + 1]` of every column, and
    its state ids index `tables[table_ids[i]]`, one table per distinct
    strategy of the batch; a forwarded id of -1 means Eve suppressed the
    pulse. `bob_minus` is False wherever the pulse did not arrive.
    """

    protocol: ProtocolKind
    n_pulses: int
    starts: np.ndarray
    tables: tuple[tuple[QubitState, ...], ...]
    table_ids: np.ndarray
    alice_bits: np.ndarray
    alice_bases: np.ndarray | None
    forwarded_ids: np.ndarray
    arrived: np.ndarray
    bob_bases: np.ndarray
    bob_minus: np.ndarray

    @property
    def state_tables(self) -> tuple[tuple[QubitState, ...], ...]:
        """Each session's state table."""
        return tuple(self.tables[j] for j in self.table_ids.tolist())


def _block_sessions(starts: np.ndarray, master_seeds: np.ndarray, a: int, b: int):
    """Per-pulse lookup of session values for pulses [a, b), and each
    pulse's stream key: its index within its session XOR its session's
    master seed, so `derive_seed_array(0, keys, stage)` equals
    `derive_seed_array(master_seed, index, stage)`.

    The lookup maps an array of one value per session to the block's
    pulses: within one session it returns that session's value, which
    then broadcasts; across sessions it repeats each value over the
    session's pulses.
    """
    first = int(np.searchsorted(starts, a, side="right")) - 1
    last = int(np.searchsorted(starts, b - 1, side="right")) - 1
    if first == last:
        offset = int(starts[first])
        keys = np.arange(a - offset, b - offset, dtype=np.uint64)
        keys ^= master_seeds[first]
        return (lambda values: values[first]), keys
    counts = np.diff(np.clip(starts[first : last + 2], a, b))

    def spread(values: np.ndarray) -> np.ndarray:
        return np.repeat(values[first : last + 1], counts)

    keys = np.arange(a, b, dtype=np.uint64)
    keys -= spread(starts.astype(np.uint64))
    keys ^= spread(master_seeds)
    return spread, keys


def simulate_session(kind: ProtocolKind, sessions: Sequence[Session]) -> SessionBatch:
    """Simulate a batch of sessions in one pass over their pulses.

    The sessions share the protocol, Eve's kind and her discrimination
    scheme's kind; each is deterministic given (its fields, master seed)
    and does not depend on the others.
    """
    if not sessions:
        raise ValueError("a batch needs at least one session")
    if any(s.n_pulses < 1 for s in sessions):
        raise ValueError("n_pulses must be at least 1")
    if len({(s.strategy.kind, s.strategy.scheme) for s in sessions}) > 1:
        raise ValueError("the sessions of a batch must share Eve's kind and scheme kind")

    # one Eve and one Bob table for the batch's distinct strategies, each
    # strategy's states in turn; a session finds its rows from the id of
    # its strategy's first state
    index: dict[EveStrategy, int] = {}
    table_ids = np.array([index.setdefault(s.strategy, len(index)) for s in sessions], np.int32)
    strategies = list(index)
    elements, targets, resent = _eve_measurement(strategies)
    sent_states = protocol_states(kind)
    tables, first, states, owner, forward = [], [], [], [], []
    for j in range(len(strategies)):
        table = tuple(dict.fromkeys(sent_states + resent[j]))
        ids = {state: i for i, state in enumerate(table)}
        tables.append(table)
        first.append(len(states))
        states += table
        owner += [j] * len(table)
        forward.append([[-1 if t is None else ids[t] for t in frame] for frame in targets[j]])
    vectors = np.array([(state.amp0, state.amp1) for state in states], dtype=complex)
    forward = np.array(forward, dtype=np.int16).reshape(elements.shape[:3])
    eve = _stage_table(vectors, elements[owner], forward[owner])
    bob = _stage_table(vectors, _BASES[None], np.int16(-1))

    state_base = np.array(first, dtype=np.int32)[table_ids]
    master_seeds = np.array([s.master_seed for s in sessions], dtype=np.uint64)
    loss = np.array([s.channel.loss_probability for s in sessions])
    starts = np.zeros(len(sessions) + 1, dtype=np.int64)
    np.cumsum([s.n_pulses for s in sessions], out=starts[1:])
    n_pulses = int(starts[-1])

    alice_bits = np.empty(n_pulses, dtype=np.int8)
    alice_bases = None if kind is ProtocolKind.B92 else np.empty(n_pulses, dtype=np.int8)
    forwarded_ids = np.empty(n_pulses, dtype=np.int16)
    arrived = np.empty(n_pulses, dtype=bool)
    bob_bases = np.empty(n_pulses, dtype=np.int8)
    bob_minus = np.empty(n_pulses, dtype=bool)

    for a in range(0, n_pulses, BLOCK):
        b = min(a + BLOCK, n_pulses)
        spread, keys = _block_sessions(starts, master_seeds, a, b)
        base = spread(state_base)

        seeds = derive_seed_array(0, keys, STAGE_ALICE)
        alice_bits[a:b] = _coin(uniform_array(seeds, 0))
        sent = alice_bits[a:b].astype(np.int16)
        if alice_bases is not None:
            alice_bases[a:b] = _coin(uniform_array(seeds, 1))
            sent += 2 * alice_bases[a:b]
        del seeds  # each stage's seeds are dropped after its last draw

        _, _, forwarded = _sample_stage(eve, sent, base, keys, STAGE_EVE)
        del sent
        forwarded_ids[a:b] = forwarded
        reached = forwarded >= 0

        reached &= uniform_array(derive_seed_array(0, keys, STAGE_CHANNEL), 0) >= spread(loss)
        arrived[a:b] = reached

        # suppressed pulses never arrive, so the row Bob reads for them is immaterial
        frame, outcome, _ = _sample_stage(bob, np.maximum(forwarded, 0), base, keys, STAGE_BOB)
        bob_bases[a:b] = frame
        bob_minus[a:b] = reached & (outcome == 1)

    return SessionBatch(
        protocol=kind,
        n_pulses=n_pulses,
        starts=starts,
        tables=tuple(tables),
        table_ids=table_ids,
        alice_bits=alice_bits,
        alice_bases=alice_bases,
        forwarded_ids=forwarded_ids,
        arrived=arrived,
        bob_bases=bob_bases,
        bob_minus=bob_minus,
    )
