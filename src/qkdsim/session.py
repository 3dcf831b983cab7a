"""End-to-end pulse pipeline: Alice -> Eve -> channel -> Bob.

Randomness contract: every pulse gets one substream per stage, seeded by
a stable hash of (master_seed, pulse index, stage tag), and each stage
consumes draws from its own substream in a fixed order:

    alice:   draw 0 bit, draw 1 basis (BB84 only)
    eve:     draw 0 frame (two-frame strategies only), then the outcome
    channel: draw 0 loss (forwarded pulses only)
    bob:     draw 0 basis, draw 1 outcome (arrived pulses only)

The hash's first round does not depend on the stage, so a block computes
it once a pulse (`seed_prefix`) and seeds each stage from it. A stage
draws only for the pulses that reach it: the channel for those Eve
forwards, Bob for those that arrive; a stage whose mask drops nothing
selects with a slice, not an index array. A block whose sessions all
have loss probability 0 skips the channel stage, since u >= 0.0 holds
for every uniform. A skipped draw changes no other, so every draw made
equals the per-pulse loop's, and the skipped ones reach no count.

Eve and Bob are both a threshold table read by one sampler, so the only
branch on Eve's strategy is in choosing her POVM elements. A batch
numbers its distinct kets once (`SessionCounts.vectors`): Alice's
first, so a sent state's id is its bit (+ 2 * basis), then every ket
some strategy can forward. It has one Eve table, a block of rows over
Alice's states per distinct strategy, one Bob table, a row per ket,
and one slot table, a row per distinct strategy holding the id of the
ket each of its slots forwards. Eve's frames are rotated for all the
strategies by one `usd.frame_kets` call, and her elements are built
from those kets as one array by `usd`'s batch builders, with no
per-strategy `QubitState` or `Povm` object, checked once, and turned
into every row by one `quantum.born` call and one running sum. Eve
reads her strategy's block at Alice's id, and the slot her draw lands
in names the forwarded id, which Bob reads as his row. Because no stage
ever touches another pulse's stream, the engine runs a *batch* of sessions
(one protocol, one Eve kind and discrimination scheme; any lengths,
channels, deltas and master seeds) as one pulse range cut into blocks of
`BLOCK` pulses. Every stage runs as numpy array operations over a block
(`_blocks` yields each block's columns), and `simulate_session` sifts
each block's arrived pulses (`sift_mask` over Bob's columns, which hold
only those) and counts the block as soon as it is drawn, then drops its
columns:
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
reference, on the blocks' columns laid end to end, Bob's on the arrived
pulses). The columns, and so
the counts, are pure functions of (configuration, master seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .adversary import ChannelModel, EveKind, EveStrategy
from .protocol import ProtocolKind, disagreements, sift_mask
from .quantum import B92_STATES, REFERENCE_KETS, SX_POVM, SZ_POVM, QubitState, REFERENCE_STATES
from .quantum import _check_operators, born, outer
from .rng import RngStream, derive_seed, derive_seed_array, seed_prefix, uniform_array
from .usd import UsdSchemeKind, frame_kets, idp_elements

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


_REFERENCES = tuple(REFERENCE_STATES.values())


def protocol_states(kind: ProtocolKind) -> tuple[QubitState, ...]:
    """Alice's states in (basis, bit) order, so an id is 2 * basis + bit:
    `B92_STATES`, or for BB84 the four `REFERENCE_STATES` in their order."""
    return B92_STATES if kind is ProtocolKind.B92 else _REFERENCES


def _coin(u: np.ndarray) -> np.ndarray:
    # a fair integer draw in [0, 2), min(int(u * 2), 1), is 1 exactly when u >= 0.5
    return (u >= 0.5).view(np.int8)


# Bob's z and x frames, shape (frames, outcomes, 2, 2); intercept-resend measures in them too
_BASES = np.stack([SZ_POVM.elements, SX_POVM.elements])
# the pairs of strategies with no discrimination scheme: none
_NO_PAIRS = np.empty((0, 2, 2), dtype=complex)


def _stage_table(vectors: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Thresholds of the states `vectors`, shape (states, 2), under each
    block of frames `elements`, shape (blocks, frames, outcomes, 2, 2):
    state row `block * states + state` holds, per frame, its cumulative
    Born probabilities for all outcomes but the last, summed left to
    right as an inverse-CDF walk does. The shape is (state rows, frames,
    outcomes - 1); every row is there, read or not.

    All rows come from one `born` call on the states' projectors
    (`outer`) and every element but each frame's last, each probability
    clamped to [0, 1].
    """
    n_blocks, n_frames, n_outcomes = elements.shape[:3]
    probs = np.clip(born(elements[:, None, :, :-1], outer(vectors)[:, None, None]), 0.0, 1.0)
    shape = (n_blocks * len(vectors), n_frames, n_outcomes - 1)
    return np.cumsum(probs, axis=-1).reshape(shape)


def _eve_measurement(
    strategies: list[EveStrategy], sent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Eve's elements for each of `strategies` (one kind and scheme kind),
    shape (strategies, frames, outcomes, 2, 2); per strategy the ket each
    slot forwards, shape (strategies, slots, 2), and per slot whether it
    forwards one (a slot is one of her (frame, outcome) pairs, frame by
    frame; with no frames, one of Alice's kets `sent`, which passes
    through unmeasured); and per strategy the ket pair it discriminates,
    shape (strategies, 2, 2), with no rows for a kind with no scheme.

    The frames of all the strategies are rotated by one `frame_kets`
    call, and each pair is its two frames' plus kets."""
    n = len(strategies)
    kind = strategies[0].kind
    if kind is EveKind.NONE:
        targets = np.broadcast_to(sent, (n,) + sent.shape)
        return np.empty((n, 0, 1, 2, 2), dtype=complex), targets, [True] * len(sent), _NO_PAIRS
    if kind is EveKind.INTERCEPT_RESEND:
        # she resends the eigenstate she found: `_BASES`'s slots and
        # `REFERENCE_KETS` are both `REFERENCE_STATES` in order
        targets = np.broadcast_to(REFERENCE_KETS, (n,) + REFERENCE_KETS.shape)
        return np.broadcast_to(_BASES, (n,) + _BASES.shape), targets, [True] * 4, _NO_PAIRS
    frames = frame_kets([s.rotation for s in strategies])
    pairs = frames[:, :, 0]
    # each slot names the state of the pair it forwards, None for none
    if strategies[0].scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        # a frame's "minus" rules out one state and so identifies the other
        elements, slots = outer(frames), (None, 1, None, 0)
    else:
        elements, slots = idp_elements(pairs), (0, 1, None)
    _check_operators(elements, "POVM element", complete=True)
    targets = pairs[:, [slot or 0 for slot in slots]]
    return elements, targets, [slot is not None for slot in slots], pairs


def _sample_stage(
    thresholds: np.ndarray, rows: np.ndarray, prefix: np.ndarray, stage: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frame and outcome (int8) of every pulse under a table of one or two
    frames (see `_stage_table`).

    `rows` (intp) are the pulses' state rows in `thresholds` and are
    overwritten; `prefix` holds the pulses' stream prefixes (see
    `_block_sessions`). Two frames: draw 0 picks the frame and draw 1
    the outcome; one frame: draw 0 picks the outcome.
    """
    n_frames = thresholds.shape[1]
    seeds = derive_seed_array(stage, prefix)
    frame = _coin(uniform_array(seeds, 0)) if n_frames == 2 else np.zeros(len(rows), np.int8)
    u = uniform_array(seeds, n_frames - 1)
    del seeds
    rows *= n_frames
    rows += frame
    outcome = np.zeros(len(rows), dtype=np.int8)
    for column in np.moveaxis(thresholds, 2, 0):
        outcome += u >= column.take(rows)
    return frame, outcome


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

    One numbering covers the whole batch: row j of `vectors` holds the
    amplitudes of ket j, each distinct ket once, Alice's first
    (`protocol_states`, so a sent state's id is its bit, plus 2 * basis
    for BB84), then every other ket some strategy can forward. Session i
    ran the distinct strategy `strategy[i]`; with a discrimination
    scheme, it discriminates the ket pair `pairs[strategy[i]]` (`pairs`
    has shape (strategies, 2, 2), and no rows without a scheme). Of
    session i's pulses, `arrived[i]` reached Bob and `sifted[i]` were
    sifted. Each (frame, outcome) pair of Eve's measurement (with no Eve,
    each of Alice's states) is a slot: session i forwarded the ket whose
    id is `forwarded_ids[i, s]` (-1 for none: the pulse was suppressed)
    `forwarded[i, s]` times. `errors`
    holds whether Bob's bit disagrees with Alice's for every sifted
    pulse, in pulse order, so session i's are the `sifted[i]` after those
    of the sessions before it.
    """

    n_pulses: int
    vectors: np.ndarray
    strategy: np.ndarray
    pairs: np.ndarray
    arrived: np.ndarray
    sifted: np.ndarray
    forwarded: np.ndarray
    forwarded_ids: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True, eq=False)
class _Batch:
    """What every block of a batch reads: its sessions' bounds `starts`,
    master seeds and loss probabilities, the stage tables, each
    session's index among the distinct strategies (`strategy`), and per
    distinct strategy the ket id each forward slot names (`forward`);
    and what the counts report of it: its kets (`vectors`) and each
    distinct strategy's pair (see `SessionCounts`)."""

    kind: ProtocolKind
    vectors: np.ndarray
    pairs: np.ndarray
    starts: np.ndarray
    master_seeds: np.ndarray
    loss: np.ndarray
    eve: np.ndarray
    bob: np.ndarray
    strategy: np.ndarray
    forward: np.ndarray

    @property
    def n_pulses(self) -> int:
        return int(self.starts[-1])


class _Block(NamedTuple):
    """One block's columns. It holds pulses of sessions `first` on; with
    `lengths` None all are session `first`'s, else `lengths[j]` of them
    are session `first + j`'s. Alice's columns, the forwarded ids (int32)
    and `slots`, each pulse's forward slot, cover every pulse. `arrived`
    holds the positions in the block of the pulses that reached Bob, in
    order, or is `slice(None)` when every pulse did; Bob's columns cover
    those pulses only, so they select Alice's matching entries."""

    first: int
    lengths: np.ndarray | None
    alice_bits: np.ndarray
    alice_bases: np.ndarray | None
    forwarded_ids: np.ndarray
    arrived: np.ndarray | slice
    bob_bases: np.ndarray
    bob_minus: np.ndarray
    slots: np.ndarray


def _block_sessions(starts: np.ndarray, master_seeds: np.ndarray, a: int, b: int):
    """The first session of pulses [a, b), the pulses each session holds
    in the range (None if one session holds them all), a per-pulse lookup
    of session values, and each pulse's stream prefix: `seed_prefix` of
    its index within its session XOR its session's master seed, so
    `derive_seed_array(stage, prefix)` equals
    `derive_seed(master_seed, index, stage)` for every stage.

    The lookup maps an array of one value per session to the range's
    pulses: within one session it returns that session's value, which
    then broadcasts; across sessions it repeats each value over the
    session's pulses.
    """
    first = int(np.searchsorted(starts, a, side="right")) - 1
    last = int(np.searchsorted(starts, b - 1, side="right")) - 1
    # one session needs no repeat; without both one-session forks a 4e6-pulse B92
    # usd_suppress run took ~6% longer (BENCH_23.json, `one_session_forks`)
    if first == last:
        offset = int(starts[first])
        keys = np.arange(a - offset, b - offset, dtype=np.uint64)
        keys ^= master_seeds[first]
        return first, None, (lambda values: values[first]), seed_prefix(keys)
    lengths = np.diff(np.clip(starts[first : last + 2], a, b))

    def spread(values: np.ndarray) -> np.ndarray:
        return np.repeat(values[first : last + 1], lengths)

    keys = np.arange(a, b, dtype=np.uint64)
    keys -= spread(starts.astype(np.uint64))
    keys ^= spread(master_seeds)
    return first, lengths, spread, seed_prefix(keys)


def _batch(kind: ProtocolKind, sessions: Sequence[Session]) -> _Batch:
    """Check a batch's sessions and build what its blocks read."""
    if not sessions:
        raise ValueError("a batch needs at least one session")
    if any(s.n_pulses < 1 for s in sessions):
        raise ValueError("n_pulses must be at least 1")
    first = sessions[0].strategy
    if any(s.strategy.kind is not first.kind or s.strategy.scheme is not first.scheme
           for s in sessions):
        raise ValueError("the sessions of a batch must share Eve's kind and scheme kind")

    # the batch's kets, Alice's first, numbered once; Eve has one row block
    # per distinct strategy over Alice's states, Bob one row per ket, and
    # the slot table one row per distinct strategy
    index: dict[EveStrategy, int] = {}
    strategy = [index.setdefault(s.strategy, len(index)) for s in sessions]
    sent = np.array([s.vector for s in protocol_states(kind)])
    elements, targets, present, pairs = _eve_measurement(list(index), sent)
    # a ket is keyed by its amplitudes as Python complex numbers, which
    # compare and hash as `QubitState`'s fields do
    ids = {tuple(ket): i for i, ket in enumerate(sent.tolist())}
    forward = [
        [ids.setdefault(tuple(ket), len(ids)) if p else -1 for ket, p in zip(kets, present)]
        for kets in targets.tolist()
    ]
    vectors = np.array(list(ids), dtype=complex)

    starts = np.zeros(len(sessions) + 1, dtype=np.int64)
    np.cumsum([s.n_pulses for s in sessions], out=starts[1:])
    return _Batch(
        kind=kind,
        vectors=vectors,
        pairs=pairs,
        starts=starts,
        master_seeds=np.array([s.master_seed for s in sessions], dtype=np.uint64),
        loss=np.array([s.channel.loss_probability for s in sessions]),
        eve=_stage_table(sent, elements),
        bob=_stage_table(vectors, _BASES[None]),
        strategy=np.array(strategy, dtype=np.intp),
        forward=np.array(forward, dtype=np.int32),
    )


def _within(selected, mask: np.ndarray):
    """The positions among `selected` (positions, or `slice(None)` for all)
    where `mask`, one value per selected pulse, holds: `selected` itself
    when it holds everywhere, so a stage that drops nothing gathers nothing."""
    if mask.all():
        return selected
    kept = np.flatnonzero(mask)
    return kept if isinstance(selected, slice) else selected[kept]


def _block(batch: _Batch, a: int, b: int) -> _Block:
    """The columns of pulses [a, b) of a batch."""
    first, lengths, spread, prefix = _block_sessions(batch.starts, batch.master_seeds, a, b)

    seeds = derive_seed_array(STAGE_ALICE, prefix)
    alice_bits = _coin(uniform_array(seeds, 0))
    rows = alice_bits.astype(np.intp)
    alice_bases = None
    if batch.kind is ProtocolKind.BB84:
        alice_bases = _coin(uniform_array(seeds, 1))
        rows += 2 * alice_bases
    del seeds  # each stage's seeds are dropped after its last draw

    # a slot is one of Eve's (frame, outcome) pairs; with no frames, Alice's state
    eve, forward = batch.eve, batch.forward
    if eve.shape[1] == 0:
        slots = rows.astype(np.int8)
    else:
        rows += spread(batch.strategy) * len(protocol_states(batch.kind))
        slots, outcome = _sample_stage(eve, rows, prefix, STAGE_EVE)
        slots *= eve.shape[2] + 1
        slots += outcome
        del outcome
    np.add(slots, spread(batch.strategy) * forward.shape[1], out=rows)
    forwarded = forward.take(rows)
    del rows

    # a stage draws only for the pulses that reach it: the channel for those
    # Eve forwards, Bob for those the channel passes; a block of lossless
    # sessions passes every pulse (u >= 0.0 for every uniform), so draws nothing
    sent = arrived = _within(slice(None), forwarded >= 0)
    loss = spread(batch.loss)
    if np.any(loss):
        if lengths is not None:
            loss = loss[sent]
        passed = uniform_array(derive_seed_array(STAGE_CHANNEL, prefix[sent]), 0) >= loss
        arrived = _within(sent, passed)
    rows = forwarded[arrived].astype(np.intp)
    bob_bases, outcome = _sample_stage(batch.bob, rows, prefix[arrived], STAGE_BOB)
    return _Block(
        first, lengths, alice_bits, alice_bases, forwarded, arrived, bob_bases, outcome == 1, slots
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
    kept, appended to one buffer. Its counts go into one table, a row per
    session: arrived, sifted, then each forward slot. Sifting runs on the
    arrived pulses only, Bob's columns, so a session's arrived and sifted
    counts are lengths of runs of them; its slot counts are over all its
    pulses. A block within one session adds the runs' lengths and each
    slot column's `count_nonzero`. A block across sessions finds each
    session's first arrived pulse by `searchsorted` of the arrivals at
    the session bounds, and adds each slot column's `reduceat` at those
    bounds (column by column, so no stack of them is cast to int64).
    """
    batch = _batch(kind, sessions)
    n_slots = batch.forward.shape[1]
    table = np.zeros((len(sessions), 2 + n_slots), dtype=np.int64)
    errors = bytearray()
    for block in _blocks(batch):
        arrived, bob_bases, bob_minus = block.arrived, block.bob_bases, block.bob_minus
        bases = None if block.alice_bases is None else block.alice_bases[arrived]
        mask = sift_mask(kind, bases, bob_bases, bob_minus)
        errors += disagreements(kind, block.alice_bits[arrived], bob_bases, bob_minus)[mask].data
        slots = [block.slots == s for s in range(n_slots)]
        i, lengths = block.first, block.lengths
        n_arrived, n_sifted = len(bob_minus), np.count_nonzero(mask)
        # one session needs no searchsorted or reduceat; `_block_sessions` says why this fork stays
        if lengths is None:
            forwarded = [np.count_nonzero(column) for column in slots]
        else:
            bounds = np.cumsum(lengths) - lengths
            runs = bounds if isinstance(arrived, slice) else np.searchsorted(arrived, bounds)
            n_arrived = np.diff(runs, append=n_arrived)
            n_sifted = np.diff(np.searchsorted(np.flatnonzero(mask), runs), append=n_sifted)
            forwarded = [np.add.reduceat(column, bounds, dtype=np.int64) for column in slots]
        rows = 1 if lengths is None else len(lengths)
        table[i : i + rows] += np.column_stack((n_arrived, n_sifted, *forwarded))
        # the next block is drawn without this one's arrays
        del block, arrived, bob_bases, bob_minus, bases, mask, slots

    return SessionCounts(
        n_pulses=batch.n_pulses,
        vectors=batch.vectors,
        strategy=batch.strategy,
        pairs=batch.pairs,
        arrived=table[:, 0],
        sifted=table[:, 1],
        forwarded=table[:, 2:],
        forwarded_ids=batch.forward[batch.strategy],
        errors=np.frombuffer(errors, dtype=bool),
    )
