"""End-to-end pulse pipeline: Alice -> Eve -> channel -> Bob.

Randomness contract: every pulse gets one substream per stage, seeded by
a stable hash of (master_seed, pulse index, stage tag), and each stage
consumes draws from its own substream in a fixed order:

    alice:   draw 0 bit, draw 1 basis (BB84 only)
    eve:     draw 0 frame (two-frame strategies only), then the outcome
    channel: draw 0 loss
    bob:     draw 0 basis, draw 1 outcome

Eve and Bob are both a `StageTable` read by one sampler, so the only
branch on Eve's strategy is in choosing her POVM elements. A batch
numbers its distinct states once (`SessionCounts.states`): Alice's
first, so a sent state's id is its bit (+ 2 * basis), then every state
some strategy can forward. It has one Eve table, a block of rows over
Alice's states per distinct strategy, and one Bob table, a row per
state. The elements of all the strategies are built as one array by
`usd`'s batch builders, with no per-strategy `Povm` object, checked
once, and turned into every row by one stacked Born product and one
running sum. Eve's stage adds each pulse's strategy offset to Alice's
id; Bob reads the forwarded id as his row. Because no stage ever
touches another pulse's stream, the engine runs a *batch* of sessions
(one protocol, one Eve kind and discrimination scheme; any lengths,
channels, deltas and master seeds) as one pulse range cut into blocks of
`BLOCK` pulses. Every stage runs as numpy array operations over a block
(`_blocks` yields each block's columns), and `simulate_session` sifts
and counts each block as soon as it is drawn, then drops its columns:
a session holds one block of columns at a time, plus one byte per
sifted pulse for its disagreement bits, and the returned
`SessionCounts` (per-session counts and those bits) is the only record
of a session. Each pulse draws from its own session's master seed at
its index within that session, loses with its session's loss
probability and reads its strategy's block of Eve's table, so a
session's pulses are the same whatever batch it runs in and whatever
the block size. A single run is a batch of one, and its columns are
draw-for-draw identical to a Python loop over `RngStream` substreams
(all three equivalences are pinned by tests, the last against a scalar
reference, on the blocks' columns laid end to end). The columns, and so
the counts, are pure functions of (configuration, master seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .adversary import ChannelModel, EveKind, EveStrategy
from .protocol import ProtocolKind, disagreements, sift_mask
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
    # a fair integer draw in [0, 2), min(int(u * 2), 1), is 1 exactly when u >= 0.5
    return (u >= 0.5).view(np.int8)


@dataclass(frozen=True, eq=False)
class StageTable:
    """A measurement stage: row `state_row * n_frames + frame` holds the
    frame's cumulative Born probabilities on the state for all outcomes
    but the last, summed left to right as an inverse-CDF walk does
    (`thresholds`), and the batch's id of the state each outcome
    forwards, -1 for none (`forward`; None for Bob, who forwards
    nothing). Eve's state rows are a block of Alice's states per
    distinct strategy (her strategy's offset plus Alice's id); Bob's
    state row is the state's id. Every row is there, read or not; with
    no frames every state passes through unmeasured."""

    n_frames: int
    thresholds: np.ndarray
    forward: np.ndarray | None


# Bob's z and x frames, shape (frames, outcomes, 2, 2); intercept-resend measures in them too
_BASES = np.array([SZ_POVM.elements, SX_POVM.elements])


def _stage_table(
    vectors: np.ndarray, elements: np.ndarray, forward: np.ndarray | None
) -> StageTable:
    """Table of the states `vectors`, shape (states, 2), under each block
    of frames: `elements` has shape (blocks, frames, outcomes, 2, 2), and
    `forward`, shape (blocks, frames, outcomes) or None for no forwarded
    states, the state id each outcome forwards. State row
    `block * states + state` holds its frames.

    All rows come from one stacked Born product <v|E v>, in
    `born_probabilities`' operation order and clamped as it clamps, so
    each row equals that function's output bit for bit.
    """
    n_blocks, n_frames, n_outcomes = elements.shape[:3]
    n_rows = n_blocks * len(vectors) * n_frames
    v = vectors.reshape(-1, 1, 1, 2, 1)
    probs = np.clip((v.conj().swapaxes(-1, -2) @ (elements[:, None] @ v)).real, 0.0, 1.0)
    thresholds = np.cumsum(probs[..., :-1, 0, 0], axis=-1).reshape(n_rows, n_outcomes - 1)
    if forward is not None:
        forward = np.repeat(forward, len(vectors), axis=0).reshape(n_rows, n_outcomes)
    return StageTable(n_frames, thresholds, forward)


def _eve_measurement(strategies: list[EveStrategy]) -> tuple[np.ndarray, list]:
    """Eve's elements for each of `strategies` (one kind and scheme kind),
    shape (strategies, frames, outcomes, 2, 2), and per strategy the state
    each frame's outcomes forward (None for none)."""
    n = len(strategies)
    kind = strategies[0].kind
    if kind is EveKind.NONE:
        return np.empty((n, 0, 1, 2, 2), dtype=complex), [()] * n
    if kind is EveKind.INTERCEPT_RESEND:
        # she resends the eigenstate she found
        eigenstates = ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS))
        return np.broadcast_to(_BASES, (n,) + _BASES.shape), [eigenstates] * n
    pairs = [s.states() for s in strategies]
    if strategies[0].scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        # a frame's "minus" rules out one state and so identifies the other
        elements = naive_frame_elements([s.rotation for s in strategies])
        targets = [((None, state1), (None, state0)) for state0, state1 in pairs]
    else:
        elements = idp_elements(pairs)
        targets = [((state0, state1, None),) for state0, state1 in pairs]
    _check_operators(elements, "POVM element", complete=True)
    return elements, targets


def _sample_stage(
    table: StageTable, rows: np.ndarray, keys: np.ndarray, stage: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Frame, outcome (int8) and forwarded state id (`table.forward`'s
    dtype, or None if it has none) of every pulse.

    `rows` (intp) are the pulses' state rows in `table` and are
    overwritten; `keys` are the pulses' stream keys (see
    `_block_sessions`). Two frames: draw 0 picks the frame and draw 1
    the outcome; one frame: draw 0 picks the outcome; no frames: no
    draws, and the state row is forwarded as the state id (a kind with
    no frames has one strategy a batch, so its state rows are state ids).
    """
    n = rows.shape[0]
    frame = np.zeros(n, dtype=np.int8)
    outcome = np.zeros(n, dtype=np.int8)
    if table.n_frames == 0:
        return frame, outcome, rows.astype(table.forward.dtype)
    seeds = derive_seed_array(0, keys, stage)
    if table.n_frames == 2:
        frame = _coin(uniform_array(seeds, 0))
    u = uniform_array(seeds, table.n_frames - 1)
    del seeds
    rows *= table.n_frames
    rows += frame
    for column in table.thresholds.T:
        outcome += u >= column.take(rows)
    if table.forward is None:
        return frame, outcome, None
    rows *= table.forward.shape[1]
    rows += outcome
    return frame, outcome, table.forward.take(rows)


@dataclass(frozen=True)
class Session:
    """One session of a batch: its length, channel, Eve and master seed."""

    n_pulses: int
    channel: ChannelModel
    strategy: EveStrategy
    master_seed: int


@dataclass
class SessionCounts:
    """What a batch of sessions of one protocol leaves: per-session counts
    and the sifted disagreement bits.

    One numbering covers the whole batch: `states` holds each distinct
    state once, Alice's states first (`protocol_states`, so a sent
    state's id is its bit, plus 2 * basis for BB84), then every other
    state some strategy can forward. Of session i's pulses, `arrived[i]`
    reached Bob and `sifted[i]` were sifted. Each (frame, outcome) pair of
    Eve's measurement (with no Eve, each of Alice's states) is a slot:
    session i forwarded the state whose id is `forwarded_ids[i, s]` (-1
    for none: the pulse was suppressed) `forwarded[i, s]` times. `errors`
    holds whether Bob's bit disagrees with Alice's for every sifted
    pulse, in pulse order, so session i's are the `sifted[i]` after those
    of the sessions before it.
    """

    n_pulses: int
    states: tuple[QubitState, ...]
    arrived: np.ndarray
    sifted: np.ndarray
    forwarded: np.ndarray
    forwarded_ids: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True, eq=False)
class _Batch:
    """What every block of a batch reads: its sessions' bounds `starts`,
    master seeds and loss probabilities, the stage tables, each
    session's row offset in Eve's table, and per session the state id
    each forward slot names (see `SessionCounts`)."""

    kind: ProtocolKind
    states: tuple[QubitState, ...]
    starts: np.ndarray
    master_seeds: np.ndarray
    loss: np.ndarray
    eve: StageTable
    bob: StageTable
    eve_offset: np.ndarray
    slot_ids: np.ndarray

    @property
    def n_pulses(self) -> int:
        return int(self.starts[-1])


class _Block(NamedTuple):
    """One block's columns. It holds pulses of sessions `first` on; with
    `lengths` None all are session `first`'s, else `lengths[j]` of them
    are session `first + j`'s. `slots` is each pulse's forward slot.
    `bob_minus` is False wherever the pulse did not arrive, and forwarded
    ids are int16, or int32 when a batch has more states than int16 can
    number."""

    first: int
    lengths: np.ndarray | None
    alice_bits: np.ndarray
    alice_bases: np.ndarray | None
    forwarded_ids: np.ndarray
    arrived: np.ndarray
    bob_bases: np.ndarray
    bob_minus: np.ndarray
    slots: np.ndarray


def _block_sessions(starts: np.ndarray, master_seeds: np.ndarray, a: int, b: int):
    """The first session of pulses [a, b), the pulses each session holds
    in the range (None if one session holds them all), a per-pulse lookup
    of session values, and each pulse's stream key: its index within its
    session XOR its session's master seed, so
    `derive_seed_array(0, keys, stage)` equals
    `derive_seed_array(master_seed, index, stage)`.

    The lookup maps an array of one value per session to the range's
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
        return first, None, (lambda values: values[first]), keys
    lengths = np.diff(np.clip(starts[first : last + 2], a, b))

    def spread(values: np.ndarray) -> np.ndarray:
        return np.repeat(values[first : last + 1], lengths)

    keys = np.arange(a, b, dtype=np.uint64)
    keys -= spread(starts.astype(np.uint64))
    keys ^= spread(master_seeds)
    return first, lengths, spread, keys


def _batch(kind: ProtocolKind, sessions: Sequence[Session]) -> _Batch:
    """Check a batch's sessions and build what its blocks read."""
    if not sessions:
        raise ValueError("a batch needs at least one session")
    if any(s.n_pulses < 1 for s in sessions):
        raise ValueError("n_pulses must be at least 1")
    if len({(s.strategy.kind, s.strategy.scheme) for s in sessions}) > 1:
        raise ValueError("the sessions of a batch must share Eve's kind and scheme kind")

    # the batch's states, Alice's first, numbered once; Eve has one row
    # block per distinct strategy over Alice's states, Bob one row per state
    index: dict[EveStrategy, int] = {}
    strategy_ids = [index.setdefault(s.strategy, len(index)) for s in sessions]
    elements, targets = _eve_measurement(list(index))
    sent_states = protocol_states(kind)
    forwardable = (t for frames in targets for frame in frames for t in frame if t is not None)
    states = tuple(dict.fromkeys((*sent_states, *forwardable)))
    ids = {state: i for i, state in enumerate(states)}
    ids[None] = -1
    id_dtype = np.int16 if len(states) - 1 <= np.iinfo(np.int16).max else np.int32
    forward = [[[ids[t] for t in frame] for frame in frames] for frames in targets]
    forward = np.array(forward, dtype=id_dtype).reshape(elements.shape[:3])
    vectors = np.array([(state.amp0, state.amp1) for state in states], dtype=complex)
    # a slot is one of a strategy's (frame, outcome) pairs; with no frames, Alice's state
    if elements.shape[1] == 0:
        slot_ids = np.arange(len(sent_states), dtype=id_dtype)[None]
    else:
        slot_ids = forward.reshape(len(forward), -1)

    starts = np.zeros(len(sessions) + 1, dtype=np.int64)
    np.cumsum([s.n_pulses for s in sessions], out=starts[1:])
    return _Batch(
        kind=kind,
        states=states,
        starts=starts,
        master_seeds=np.array([s.master_seed for s in sessions], dtype=np.uint64),
        loss=np.array([s.channel.loss_probability for s in sessions]),
        eve=_stage_table(vectors[: len(sent_states)], elements, forward),
        bob=_stage_table(vectors, _BASES[None], None),
        eve_offset=np.array(strategy_ids, dtype=np.intp) * len(sent_states),
        slot_ids=slot_ids[strategy_ids],
    )


def _block(batch: _Batch, a: int, b: int) -> _Block:
    """The columns of pulses [a, b) of a batch."""
    first, lengths, spread, keys = _block_sessions(batch.starts, batch.master_seeds, a, b)

    seeds = derive_seed_array(0, keys, STAGE_ALICE)
    alice_bits = _coin(uniform_array(seeds, 0))
    rows = alice_bits.astype(np.intp)
    alice_bases = None
    if batch.kind is ProtocolKind.BB84:
        alice_bases = _coin(uniform_array(seeds, 1))
        rows += 2 * alice_bases
    del seeds  # each stage's seeds are dropped after its last draw
    rows += spread(batch.eve_offset)

    eve = batch.eve
    frame, outcome, forwarded = _sample_stage(eve, rows, keys, STAGE_EVE)
    del rows
    if eve.n_frames == 0:
        slots = forwarded
    else:
        frame *= eve.forward.shape[1]
        slots = frame
        slots += outcome
    del frame, outcome
    reached = forwarded >= 0

    reached &= uniform_array(derive_seed_array(0, keys, STAGE_CHANNEL), 0) >= spread(batch.loss)

    # suppressed pulses never arrive, so the row Bob reads for them is immaterial
    rows = np.maximum(forwarded, 0, dtype=np.intp)
    bob_bases, outcome, _ = _sample_stage(batch.bob, rows, keys, STAGE_BOB)
    bob_minus = reached & (outcome == 1)
    return _Block(
        first, lengths, alice_bits, alice_bases, forwarded, reached, bob_bases, bob_minus, slots
    )


def _blocks(batch: _Batch) -> Iterator[_Block]:
    """Every block of a batch, in pulse order."""
    for a in range(0, batch.n_pulses, BLOCK):
        yield _block(batch, a, min(a + BLOCK, batch.n_pulses))


def simulate_session(kind: ProtocolKind, sessions: Sequence[Session]) -> SessionCounts:
    """Simulate a batch of sessions in one pass over their pulses.

    The sessions share the protocol, Eve's kind and her discrimination
    scheme's kind; each is deterministic given (its fields, master seed)
    and does not depend on the others. Each block is sifted and counted
    as soon as it is drawn, and only its sifted disagreement bits are
    kept. A block within one session is counted with `count_nonzero`
    (a `bincount` of its slots took four times as long); a block across
    sessions (in the harness a multi-session batch is at most one block)
    with one `reduceat` per count and one `bincount` of (session, slot).
    """
    batch = _batch(kind, sessions)
    n_sessions, n_slots = batch.slot_ids.shape
    arrived = np.zeros(n_sessions, dtype=np.int64)
    sifted = np.zeros(n_sessions, dtype=np.int64)
    forwarded = np.zeros((n_sessions, n_slots), dtype=np.int64)
    errors = []
    for block in _blocks(batch):
        mask = sift_mask(kind, block.alice_bases, block.arrived, block.bob_bases, block.bob_minus)
        errors.append(disagreements(kind, block.alice_bits, block.bob_bases, block.bob_minus)[mask])
        i, lengths = block.first, block.lengths
        if lengths is None:
            arrived[i] += np.count_nonzero(block.arrived)
            sifted[i] += np.count_nonzero(mask)
            forwarded[i] += [np.count_nonzero(block.slots == slot) for slot in range(n_slots)]
        else:
            j = i + len(lengths)
            bounds = np.cumsum(lengths) - lengths
            arrived[i:j] += np.add.reduceat(block.arrived, bounds, dtype=np.int64)
            sifted[i:j] += np.add.reduceat(mask, bounds, dtype=np.int64)
            keys = np.repeat(np.arange(0, len(lengths) * n_slots, n_slots), lengths) + block.slots
            forwarded[i:j] += np.bincount(keys, minlength=len(lengths) * n_slots).reshape(-1, n_slots)
        del block, mask  # the next block is drawn without this one's columns

    return SessionCounts(
        n_pulses=batch.n_pulses,
        states=batch.states,
        arrived=arrived,
        sifted=sifted,
        forwarded=forwarded,
        forwarded_ids=batch.slot_ids,
        errors=np.concatenate(errors),
    )
