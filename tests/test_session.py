"""The array engine against a hand-composed scalar pipeline, plus
determinism, block-size and batch independence and substream-permutation
properties, and its per-block counts against the same counts taken over
its blocks' columns laid end to end."""

import os
import sys
import threading
import tracemalloc
from dataclasses import fields
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import (
    TAU_X_MINUS,
    TAU_X_PLUS,
    TAU_Z_MINUS,
    TAU_Z_PLUS,
    _usd_conclusive_branches,
    born,
)
from qkdsim import session
from qkdsim.adversary import (
    HALF_PI,
    ChannelModel,
    EveKind,
    EveStrategy,
    forwarded_state_symmetry,
)
from qkdsim.protocol import ProtocolKind, disagreements, sift_mask
from qkdsim.quantum import (
    SX_POVM,
    SZ_POVM,
    Povm,
    QubitState,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    born_probabilities,
)
from qkdsim.session import (
    BLOCK,
    STAGE_ALICE,
    STAGE_BOB,
    STAGE_CHANNEL,
    STAGE_EVE,
    Session,
    pulse_stream,
    simulate_session,
)
from qkdsim.usd import UsdSchemeKind, idp_povm, naive_frame_povms
from reference import (
    BASIS_LABELS,
    COLUMNS,
    NO_DRAW,
    alice_prepare,
    batch_states,
    bob_measure,
    channel_transmit,
    eve_actions,
    eve_apply,
    integers,
    one_session,
    session_columns,
    simulate_batch,
    state_label,
    symmetry,
)

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
    bit = integers(alice, 2)
    if kind is ProtocolKind.B92:
        basis = None
        state = alice_prepare(kind, bit)
    else:
        basis = BASIS_LABELS[integers(alice, 2)]
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
        bob_basis, outcome = BASIS_LABELS[integers(bob, 2)], "null"
    return bit, basis, state, log.action, forwarded is not None, bob_basis, outcome


def _assert_pulse_matches_scalar(t, kind, strategy, channel, seed, i):
    """Pulse i of the columns `t` (a `session_columns` dict) against the
    scalar pipeline, Alice's state ids and Eve's actions included. The
    scalar pipeline makes every draw; Bob's basis is compared only where
    the pulse arrived, since elsewhere the engine draws none."""
    bit, basis, state, action, arrived, bob_basis, outcome = _scalar_pulse(
        kind, strategy, channel, seed, i
    )
    assert bit == t["alice_bits"][i]
    if basis is not None:
        assert basis == BASIS_LABELS[t["alice_bases"][i]]
    assert state == t["states"][t["sent_ids"][i]]
    assert action == eve_actions(strategy, t["forwarded_ids"][i])
    assert arrived == bool(t["arrived"][i])
    # the engine draws Bob's columns only for pulses that arrive
    if arrived:
        assert bob_basis == BASIS_LABELS[t["bob_bases"][i]]
    else:
        assert t["bob_bases"][i] == NO_DRAW
    engine_outcome = "null" if not t["arrived"][i] else ("minus" if t["bob_minus"][i] else "plus")
    assert outcome == engine_outcome


@pytest.mark.parametrize("name,kind,strategy,channel", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_scalar_composition(name, kind, strategy, channel):
    """Array engine reproduces the per-pulse substream pipeline exactly,
    including on both sides of every block boundary of a longer session."""
    n, seed = 400, 2024
    t = session_columns(one_session(kind, n, channel, strategy, seed))
    for i in range(n):
        _assert_pulse_matches_scalar(t, kind, strategy, channel, seed, i)

    t = session_columns(one_session(kind, 2 * BLOCK + 3, channel, strategy, seed))
    for i in (0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 2):
        _assert_pulse_matches_scalar(t, kind, strategy, channel, seed, i)


@pytest.mark.parametrize("block,n", [(1, 203), (7, 1_003), (4096, 2 * 4096 + 5)])
def test_transcript_independent_of_block_size(block, n, monkeypatch):
    """Any split of the pulse range gives the default block's transcript."""
    seed = 31
    expected = [one_session(kind, n, ch, strategy, seed) for _, kind, strategy, ch in CASES]
    monkeypatch.setattr(session, "BLOCK", block)
    for (_, kind, strategy, ch), want in zip(CASES, expected):
        got = one_session(kind, n, ch, strategy, seed)
        assert got.n_pulses == want.n_pulses
        _assert_same_columns(session_columns(got), session_columns(want), strategy)


def _assert_same_columns(got, want, strategy):
    """Equal `session_columns` dicts, down to dtypes; Eve's actions too.
    Forwarded ids number each batch's own states, so they are compared by
    the states they name."""
    assert got["forwarded_states"].tolist() == want["forwarded_states"].tolist()
    for column in (*COLUMNS, "sent_ids"):
        a, b = got[column], want[column]
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            if column != "forwarded_ids":
                np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        eve_actions(strategy, got["forwarded_ids"]), eve_actions(strategy, want["forwarded_ids"])
    )


def _mismatch(delta):
    return EveStrategy.of(EveKind.BASIS_MISMATCH, UsdSchemeKind.OPTIMAL_IDP, delta)


def _fields(s):
    """A `Session`'s fields in order, not recursing into the dataclasses it holds."""
    return [getattr(s, field.name) for field in fields(s)]


# lengths, channels, deltas and seeds differ from session to session; the
# zero deltas forward Alice's own states and the others their own pair
BATCH = [
    Session(5, ChannelModel(0.1, 0.9), _mismatch(0.0), 11),
    Session(300, ChannelModel(), _mismatch(0.4), 2**64 - 1),
    Session(1, ChannelModel(0.5, 1.0), _mismatch(1.2), 0),
    Session(4_100, ChannelModel(0.0, 0.7), _mismatch(0.4), 12),
    Session(77, ChannelModel(0.3, 0.3), _mismatch(0.0), 13),
]


@pytest.mark.parametrize("block", [3, 64, 4096, BLOCK])
def test_batched_sessions_equal_standalone_sessions(block, monkeypatch):
    """A session's transcript does not depend on the batch around it, nor
    on where block boundaries fall inside or across sessions."""
    alone = [one_session(ProtocolKind.B92, *_fields(s)) for s in BATCH]
    monkeypatch.setattr(session, "BLOCK", block)
    batch = simulate_batch(ProtocolKind.B92, BATCH)
    assert batch.n_pulses == sum(s.n_pulses for s in BATCH)
    for i, (s, want) in enumerate(zip(BATCH, alone)):
        _assert_same_columns(session_columns(batch, i), session_columns(want), s.strategy)


@pytest.mark.parametrize("name,kind,strategy,channel", CASES, ids=[c[0] for c in CASES])
def test_batch_of_every_case_matches_scalar_composition(name, kind, strategy, channel):
    """Every strategy batched with itself: the second session's pulses are
    the scalar pipeline's at its own seed and local indices."""
    batch = simulate_batch(
        kind, [Session(50, channel, strategy, 1), Session(60, channel, strategy, 2)]
    )
    t = session_columns(batch, 1)
    for i in range(60):
        _assert_pulse_matches_scalar(t, kind, strategy, channel, 2, i)


def test_stages_draw_only_for_pulses_that_reach_them(monkeypatch):
    """Lossy B92 naive usd_suppress sessions over blocks of 1,000 pulses,
    one block across both: Alice and Eve seed a stream for every pulse,
    the channel only for the pulses Eve forwards and Bob only for those
    that arrived, block by block, and the totals equal the counts. The
    channel draws nothing in a block of lossless sessions, where every
    forwarded pulse arrives."""
    monkeypatch.setattr(session, "BLOCK", 1_000)
    strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
    sessions = [Session(2_500, ChannelModel(0.2, 0.8), strategy, 6),
                Session(700, ChannelModel(0.1, 0.5), strategy, 2**64 - 1)]
    t = simulate_batch(ProtocolKind.B92, sessions)
    sizes = {stage: [] for stage in (STAGE_ALICE, STAGE_EVE, STAGE_CHANNEL, STAGE_BOB)}
    derive = session.derive_seed_array

    def recorded(seed, indices, *keys):
        sizes[seed].append(len(indices))
        return derive(seed, indices, *keys)

    monkeypatch.setattr(session, "derive_seed_array", recorded)
    counts = simulate_session(ProtocolKind.B92, sessions)
    blocks = [slice(a, a + 1_000) for a in range(0, 3_200, 1_000)]
    assert sizes[STAGE_ALICE] == sizes[STAGE_EVE] == [1_000, 1_000, 1_000, 200]
    assert sizes[STAGE_CHANNEL] == [np.count_nonzero(t.forwarded_ids[b] >= 0) for b in blocks]
    assert sizes[STAGE_BOB] == [np.count_nonzero(t.arrived[b]) for b in blocks]
    forwarded = np.where(counts.forwarded_ids >= 0, counts.forwarded, 0).sum()
    assert sum(sizes[STAGE_CHANNEL]) == forwarded < 3_200 // 2
    assert sum(sizes[STAGE_BOB]) == counts.arrived.sum() < forwarded

    # a block whose sessions are all lossless makes no channel draw, and a
    # block that also holds a lossy session draws for all its forwarded pulses
    lossless = [Session(1_500, ChannelModel(), strategy, 6),
                Session(300, ChannelModel(), strategy, 5)]
    mixed = [*lossless, Session(400, ChannelModel(0.2, 0.8), strategy, 4)]
    for sessions, drawing in ((lossless, []), (mixed, [1, 2])):
        t = simulate_batch(ProtocolKind.B92, sessions)
        for stage_sizes in sizes.values():
            stage_sizes.clear()
        counts = simulate_session(ProtocolKind.B92, sessions)
        blocks = [slice(a, a + 1_000) for a in range(0, t.n_pulses, 1_000)]
        assert sizes[STAGE_CHANNEL] == [
            np.count_nonzero(t.forwarded_ids[blocks[b]] >= 0) for b in drawing
        ]
        assert sizes[STAGE_BOB] == [np.count_nonzero(t.arrived[b]) for b in blocks]
        assert counts.arrived.tolist() == [
            np.count_nonzero(t.arrived[a:b]) for a, b in zip(t.starts, t.starts[1:])
        ]
    assert np.array_equal(t.arrived[:1_800], t.forwarded_ids[:1_800] >= 0)


def test_batch_rejects_mixed_kinds_and_empty_batches():
    sessions = [
        Session(10, ChannelModel(), EveStrategy.of(EveKind.USD_SUPPRESS), 1),
        Session(10, ChannelModel(), _mismatch(0.2), 2),
    ]
    with pytest.raises(ValueError, match="share"):
        simulate_session(ProtocolKind.B92, sessions)
    with pytest.raises(ValueError, match="at least one session"):
        simulate_session(ProtocolKind.B92, [])


def _labels(counts):
    """Each forward slot's label, as the harness labels them."""
    return np.array([state_label(s) for s in batch_states(counts)] + [""])[counts.forwarded_ids]


@pytest.mark.parametrize("name,kind,strategy,channel", CASES, ids=[c[0] for c in CASES])
def test_forwarded_state_symmetry_equals_bincount(name, kind, strategy, channel):
    """The engine's per-slot counts, summed by label, equal a bincount over
    the forwarded pulses' ids, summed over the ids labelled z+ and x+."""
    t = one_session(kind, 3_000, channel, strategy, 8)
    counts = simulate_session(kind, [Session(3_000, channel, strategy, 8)])
    labels = np.array([state_label(s) for s in t.states])
    by_id = np.bincount(t.forwarded_ids[t.forwarded_ids >= 0], minlength=len(labels))
    expected = (int(by_id[labels == "z+"].sum()), int(by_id[labels == "x+"].sum()))
    assert symmetry(t) == expected
    z, x = forwarded_state_symmetry(counts.forwarded, _labels(counts))
    assert (int(z[0]), int(x[0])) == expected


def test_forwarded_state_symmetry_of_a_batch_equals_each_session_alone():
    """A batch counts each session's z+ and x+ forwards by the labels of
    the batch's states, as counting the session alone does; the batch
    numbers each distinct state once, Alice's first."""
    sessions = [*BATCH, Session(40, ChannelModel(), _mismatch(0.0), 14)]
    batch = simulate_batch(ProtocolKind.B92, sessions)
    counts = simulate_session(ProtocolKind.B92, sessions)
    assert batch_states(counts) == batch.states
    pairs = {state for s in sessions for state in s.strategy.states()}
    assert len(batch.states) == len(set(batch.states)) == len(pairs | {Z_PLUS, X_PLUS})
    assert batch.states[:2] == session.protocol_states(ProtocolKind.B92)
    count_z, count_x = forwarded_state_symmetry(counts.forwarded, _labels(counts))
    alone = [symmetry(batch, i) for i in range(len(sessions))]
    assert list(zip(count_z.tolist(), count_x.tolist())) == alone
    assert any(z > 0 and x > 0 for z, x in alone)


def _assert_counts_equal_columns(kind, sessions):
    """The engine's record of a batch equals the counts taken over its
    blocks' columns laid end to end: per session, the arrived and sifted
    pulses and the pulses that forwarded each state id (or none), and the
    batch's sifted disagreement bits in pulse order."""
    counts = simulate_session(kind, sessions)
    t = simulate_batch(kind, sessions)
    assert counts.n_pulses == t.n_pulses and batch_states(counts) == t.states
    mask = t.arrived & sift_mask(kind, t.alice_bases, t.bob_bases, t.bob_minus)
    errors = disagreements(kind, t.alice_bits, t.bob_bases, t.bob_minus)[mask]
    assert counts.errors.dtype == bool
    np.testing.assert_array_equal(counts.errors, errors)
    n_ids = len(t.states) + 1  # id -1 counted last
    for i, (a, b) in enumerate(zip(t.starts, t.starts[1:])):
        assert counts.arrived[i] == np.count_nonzero(t.arrived[a:b])
        assert counts.sifted[i] == np.count_nonzero(mask[a:b])
        want = np.bincount(t.forwarded_ids[a:b] % n_ids, minlength=n_ids)
        got = np.bincount(counts.forwarded_ids[i] % n_ids, counts.forwarded[i], minlength=n_ids)
        np.testing.assert_array_equal(got, want)
    assert counts.sifted.sum() == len(errors) > 0


# every strategy of CASES with both protocols' states
_BOTH = [
    (f"{name.split('-', 1)[1]}-{kind.value}", kind, strategy, channel)
    for name, _, strategy, channel in CASES
    for kind in ProtocolKind
]


@pytest.mark.parametrize("block", [BLOCK, 1_000])
@pytest.mark.parametrize("name,kind,strategy,channel", _BOTH, ids=[c[0] for c in _BOTH])
def test_block_counts_equal_counts_over_columns(name, kind, strategy, channel, block, monkeypatch):
    """A lone session of three default blocks and a batch of sessions of
    different lengths, channels and seeds, run at the default block and
    at 1,000 pulses a block: the counts the engine keeps per block equal
    `sift_mask`, `disagreements` and `bincount` over the whole columns."""
    monkeypatch.setattr(session, "BLOCK", block)
    _assert_counts_equal_columns(kind, [Session(2 * BLOCK + 7, channel, strategy, 3)])
    lengths = (5, 300, 1, 4_100, 77)
    sessions = [
        Session(n, ChannelModel(0.1 * j, 1.0 - 0.1 * j), strategy, 2**64 - 1 - j)
        for j, n in enumerate(lengths)
    ]
    _assert_counts_equal_columns(kind, sessions)


def test_sifted_bits_are_held_once():
    """Half the pulses of a lossless BB84 intercept-resend session sift,
    so at 8x10^6 pulses its 4 MB of sifted bits outweigh one block's
    working arrays (about 1.5 MiB). Appended to one buffer, they are held
    once: the tracemalloc peak stays within 2.75 MiB of them (1.7 here).
    A list of per-block arrays joined at the end held them twice (3.9)."""
    sessions = [Session(8_000_000, ChannelModel(), EveStrategy(EveKind.INTERCEPT_RESEND), 0)]
    tracemalloc.start()
    try:
        counts = simulate_session(ProtocolKind.BB84, sessions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts.errors) > 3_900_000
    assert peak - len(counts.errors) < 2.75 * 2**20


def _assert_ranges(ranges, n, block, cpus):
    """`pulse_ranges` is contiguous, block-aligned and covers [0, n) in
    order, with never more ranges than CPUs or blocks."""
    assert 1 <= len(ranges) <= min(cpus, -(-n // block))
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    for (a, b), (c, _) in zip(ranges, ranges[1:]):
        assert a < b == c and c % block == 0


@pytest.mark.parametrize("cpus,workers", [(1, 1), (2, 2), (64, 9)])
def test_pulse_ranges_follow_the_cpus(cpus, workers):
    """10^7 pulses in 2^15-pulse blocks: one range a CPU, up to one a
    `PARALLEL_MIN` pulses (9 of them), each within a block of the others."""
    n = 10**7
    ranges = session.pulse_ranges(n, BLOCK, cpus)
    _assert_ranges(ranges, n, BLOCK, cpus)
    assert len(ranges) == workers
    sizes = [b - a for a, b in ranges]
    assert max(sizes) - min(sizes) <= BLOCK


def test_pulse_ranges_stay_serial_below_the_threshold():
    n = 2 * session.PARALLEL_MIN - 1
    assert session.pulse_ranges(n, BLOCK, 64) == [(0, n)]
    assert len(session.pulse_ranges(n + 1, BLOCK, 64)) == 2


def test_pulse_ranges_never_outnumber_the_blocks(monkeypatch):
    """Fewer blocks than CPUs give a range a block; one block, however
    large (`BLOCK = 10**12` as in the unallocatable-session test), is one
    range, never an empty range beside it."""
    monkeypatch.setattr(session, "PARALLEL_MIN", 1)
    assert session.pulse_ranges(3 * 64 + 1, 64, 64) == [(0, 64), (64, 128), (128, 192), (192, 193)]
    assert session.pulse_ranges(10**12, 10**12, 64) == [(0, 10**12)]
    assert session.pulse_ranges(1, 64, 64) == [(0, 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**13), st.integers(1, 2**20), st.integers(1, 256), st.integers(1, 2**22))
def test_pulse_ranges_partition_every_batch(n, block, cpus, minimum):
    session_min = session.PARALLEL_MIN
    session.PARALLEL_MIN = minimum
    try:
        ranges = session.pulse_ranges(n, block, cpus)
    finally:
        session.PARALLEL_MIN = session_min
    _assert_ranges(ranges, n, block, cpus)
    assert len(ranges) <= max(1, n // minimum)


def _assert_same_counts(got, want):
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name


def _forked_equals_serial(kind, sessions, forks, monkeypatch):
    """The engine's record of a batch, forked, equals its serial record."""
    forked = simulate_session(kind, sessions)
    assert forks
    with monkeypatch.context() as serial:
        serial.setattr(session, "PARALLEL_MIN", 2**62)
        _assert_same_counts(forked, simulate_session(kind, sessions))
    return forked


@pytest.mark.parametrize("name,kind,strategy,channel", _BOTH, ids=[c[0] for c in _BOTH])
def test_forked_counts_equal_serial_counts(name, kind, strategy, channel, forking, monkeypatch):
    """Every strategy with both protocols' states, lossless and lossy: the
    children's tables added and their bits appended in range order give
    the serial table and bits, byte for byte."""
    monkeypatch.setattr(session, "BLOCK", 64)
    forked = _forked_equals_serial(kind, [Session(1_000, channel, strategy, 5)], forking, monkeypatch)
    assert len(forked.errors) > 0


def test_forked_batch_straddling_a_range_boundary_equals_serial(forking, monkeypatch):
    """A batch of sessions of different lengths, channels and seeds, one
    of which straddles the cut between the parent's range and a child's."""
    monkeypatch.setattr(session, "BLOCK", 64)
    starts = [0, *accumulate(s.n_pulses for s in BATCH)]
    cuts = [a for a, _ in session.pulse_ranges(starts[-1], 64, session._cpus())[1:]]
    assert any(a < cut < b for a, b in zip(starts, starts[1:]) for cut in cuts)
    _forked_equals_serial(ProtocolKind.B92, BATCH, forking, monkeypatch)


def test_forked_run_leaves_no_process_and_no_multiprocessing(forking):
    """The `forking` fixture checks that every child was reaped; the engine
    forks by `os.fork` alone, so `multiprocessing` stays unimported."""
    imported = "multiprocessing" in sys.modules
    simulate_session(ProtocolKind.B92, [Session(100_000, ChannelModel(), _mismatch(0.4), 1)])
    assert len(forking) == min(session._cpus(), 4) - 1  # 4 blocks
    assert ("multiprocessing" in sys.modules) == imported


def _raise_in(monkeypatch, where, raised):
    """Make counting a block raise `raised` in this process ("parent") or
    in each forked child ("child"); a child may end by `os._exit` too."""
    parent = os.getpid()
    block = session._block

    def raising(batch, a, b):
        if (os.getpid() == parent) == (where == "parent"):
            if raised is os._exit:
                os._exit(3)
            raise raised
        return block(batch, a, b)

    monkeypatch.setattr(session, "_block", raising)


@pytest.mark.parametrize(
    "where,raised,caught",
    [
        ("child", MemoryError, MemoryError),
        ("child", ValueError("bad block"), ValueError),
        ("child", KeyboardInterrupt, KeyboardInterrupt),
        ("child", os._exit, ChildProcessError),
        ("parent", MemoryError, MemoryError),
        ("parent", KeyboardInterrupt, KeyboardInterrupt),
    ],
    ids=["child-memory", "child-value", "child-interrupt", "child-exit", "parent-memory",
         "parent-interrupt"],
)
def test_a_failing_range_raises_here_and_reaps_every_child(where, raised, caught, forking,
                                                           monkeypatch):
    """A child's exception is raised in the parent as its own type (a
    child that ends without its counts as `ChildProcessError`), and an
    exception in the parent's own range kills the children; either way
    every child is reaped (the `forking` fixture checks)."""
    _raise_in(monkeypatch, where, raised)
    with pytest.raises(caught):
        simulate_session(ProtocolKind.B92, [Session(100_000, ChannelModel(), _mismatch(0.4), 1)])
    assert forking


def test_a_live_thread_keeps_the_engine_serial(forking, monkeypatch):
    """Fork with another thread alive can deadlock the child, so the
    engine does not fork then, and still counts the whole batch."""

    def no_fork():
        raise AssertionError("forked with a live thread")

    monkeypatch.setattr(os, "fork", no_fork)
    sessions = [Session(100_000, ChannelModel(0.1, 0.9), _mismatch(0.4), 1)]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        counts = simulate_session(ProtocolKind.B92, sessions)
    finally:
        release.set()
        thread.join()
    monkeypatch.setattr(session, "PARALLEL_MIN", 2**62)
    _assert_same_counts(counts, simulate_session(ProtocolKind.B92, sessions))


def test_block_counts_of_a_mismatch_sweep_batch_equal_counts_over_columns():
    """Sessions of different deltas forward different states: each is
    counted against its own ids."""
    _assert_counts_equal_columns(ProtocolKind.B92, BATCH)


def _measurement(strategy, sent):
    """Eve's frames and the state each of her slots forwards (None for
    none), frame by frame, spelled out per strategy from the attack's
    definition; with no Eve a slot is one of Alice's states `sent`."""
    if strategy.kind is EveKind.NONE:
        return (), sent
    if strategy.kind is EveKind.INTERCEPT_RESEND:
        return (SZ_POVM, SX_POVM), (Z_PLUS, Z_MINUS, X_PLUS, X_MINUS)
    state0, state1 = strategy.states()
    if strategy.scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        return naive_frame_povms(strategy.rotation), (None, state1, None, state0)
    return (idp_povm(state0, state1),), (state0, state1, None)


def _assert_thresholds(table, first, states, povms):
    """Each of `states`, in turn from state row `first`, holds per frame
    (entered or not) the left-to-right running sum of its Born
    probabilities, bit for bit."""
    assert table.shape[1] == len(povms)
    for k, state in enumerate(states):
        for f, povm in enumerate(povms):
            expected = np.array(list(accumulate(born_probabilities(state, povm)[:-1])))
            assert np.array_equal(table[first + k, f].view(np.uint64), expected.view(np.uint64))


def _taus(strategies):
    """The half-angle tau (see `enumeration`) of every state a batch of
    `strategies` can hold: the reference states and each pair Eve
    discriminates, B92's pair turned by delta / 2."""
    taus = {Z_PLUS: TAU_Z_PLUS, Z_MINUS: TAU_Z_MINUS, X_PLUS: TAU_X_PLUS, X_MINUS: TAU_X_MINUS}
    for strategy in strategies:
        if strategy.scheme is not None:
            half = strategy.rotation / 2.0
            taus.update(zip(strategy.states(), (TAU_Z_PLUS + half, TAU_X_PLUS + half)))
    return taus


def _bob_row(tau):
    """Bob's thresholds on the state at tau: P(plus) in z, then in x."""
    return [[born(tau, TAU_Z_PLUS)], [born(tau, TAU_X_PLUS)]]


def _eve_row(strategy, tau):
    """Eve's thresholds on Alice's state at tau, from the enumeration's
    outcome trees: P(plus) per frame, 1 minus twice the frame's minus
    branch, for the naive scheme; the running sum of the two conclusive
    branches for the optimal one."""
    if strategy.kind is EveKind.NONE:
        return np.empty((0, 0))
    if strategy.kind is EveKind.INTERCEPT_RESEND:
        return _bob_row(tau)
    (p0, _), (p1, _) = _usd_conclusive_branches(tau, strategy.rotation, strategy.scheme.value)
    if strategy.scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        return [[1.0 - 2.0 * p0], [1.0 - 2.0 * p1]]
    return [[p0, p0 + p1]]


def _sweep_sessions(n, deltas, n_pulses=1):
    return [Session(n_pulses, ChannelModel(), _mismatch(d), i) for i, d in enumerate(deltas[:n])]


# 16,400 distinct nonzero deltas: each adds its own rotated pair of states
_WIDE_DELTAS = np.linspace(0.0, HALF_PI, 16_401, endpoint=False)[1:].tolist()


def test_forwarded_ids_widen_to_int32_past_int16_states():
    """A batch of 16,400 one-pulse mismatch sessions numbers more states
    than int16 holds, and its sessions forward the same states as when run
    alone; 16,383 sessions number exactly 2**15 states, ids 0 to 2**15 - 1."""
    edge = simulate_batch(ProtocolKind.B92, _sweep_sessions(16_383, _WIDE_DELTAS))
    assert len(edge.states) == 2**15
    sessions = _sweep_sessions(16_400, _WIDE_DELTAS)
    batch = simulate_batch(ProtocolKind.B92, sessions)
    assert len(batch.states) == 2 + 2 * 16_400
    forwarding = np.flatnonzero(batch.forwarded_ids >= 0)
    suppressed = np.flatnonzero(batch.forwarded_ids < 0)
    sample = [*forwarding[:2], *forwarding[-3:], *suppressed[:2]]
    assert batch.forwarded_ids[forwarding[-1]] > np.iinfo(np.int16).max
    for i in sample:
        alone = session_columns(one_session(ProtocolKind.B92, *_fields(sessions[i])))
        got = session_columns(batch, i)
        assert got["forwarded_states"].tolist() == alone["forwarded_states"].tolist()
        for column in ("alice_bits", "arrived", "bob_bases", "bob_minus"):
            np.testing.assert_array_equal(got[column], alone[column])


def _mismatch_batches(name, deltas):
    return [
        (ProtocolKind.B92, [EveStrategy.of(EveKind.BASIS_MISMATCH, scheme, d) for d in deltas])
        for scheme in UsdSchemeKind
    ], [f"{name}-{scheme.value}" for scheme in UsdSchemeKind]


_SWEEPS = [
    _mismatch_batches("mismatch", np.linspace(0.0, HALF_PI, 200, endpoint=False).tolist()),
    # delta 0 (and a delta whose half rounds to 0) forwards Alice's own
    # states, so it adds no state, and repeats share one block of Eve's rows
    _mismatch_batches("mixed-zero", [0.3, 0.0, 1e-3, 0.0, 5e-324, 1.2, 0.3]),
    _mismatch_batches("thousand", np.linspace(0.0, HALF_PI, 1_000, endpoint=False).tolist()),
]


@pytest.mark.parametrize(
    "kind,strategies",
    [(kind, [strategy]) for _, kind, strategy, _ in CASES]
    + [batch for batches, _ in _SWEEPS for batch in batches],
    ids=[c[0] for c in CASES] + [name for _, names in _SWEEPS for name in names],
)
def test_stage_tables_equal_born_probabilities(kind, strategies):
    """The engine's Eve table of a batch holds, for each distinct strategy
    in turn, a block of rows over Alice's states, and its Bob table a row
    per state of the batch; each row equals the per-state
    `born_probabilities` running sums on its own POVM, bit for bit. Both
    sides form their probabilities by `quantum.born`, so every threshold
    is also checked, to 1e-14, against the closed forms of
    `enumeration`, which share no code with the package. Its slot table
    has one row per distinct strategy, the ids of the states her slots
    forward, and each session's forwarded ids are its strategy's row."""
    sessions = [Session(1, ChannelModel(), s, 0) for s in strategies]
    batch = session._batch(kind, sessions)
    states = batch_states(batch)
    sent = session.protocol_states(kind)
    assert states[: len(sent)] == sent
    ids = {state: i for i, state in enumerate(states)}
    assert len(ids) == len(states)
    ids[None] = -1
    distinct = {strategy: j for j, strategy in enumerate(dict.fromkeys(strategies))}
    assert batch.forward.shape[0] == len(distinct)
    for strategy, j in distinct.items():
        povms, targets = _measurement(strategy, sent)
        _assert_thresholds(batch.eve, j * len(sent), sent, povms)
        assert batch.forward[j].tolist() == [ids[t] for t in targets]
    _assert_thresholds(batch.bob, 0, states, (SZ_POVM, SX_POVM))
    taus = _taus(strategies)
    for strategy, j in distinct.items():
        rows = batch.eve[j * len(sent): (j + 1) * len(sent)]
        expected = [_eve_row(strategy, taus[state]) for state in sent]
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-14)
    expected = [_bob_row(taus[state]) for state in states]
    np.testing.assert_allclose(batch.bob, expected, rtol=0, atol=1e-14)
    assert batch.eve.shape[0] == len(distinct) * len(sent)
    assert batch.bob.shape[0] == len(states)
    forwarded_ids = simulate_session(kind, sessions).forwarded_ids
    for i, strategy in enumerate(strategies):
        assert forwarded_ids[i].tolist() == batch.forward[distinct[strategy]].tolist()


@pytest.mark.parametrize(
    "kind,strategies",
    [batch for batches, _ in _SWEEPS for batch in batches],
    ids=[name for _, names in _SWEEPS for name in names],
)
def test_ket_numbering_equals_a_state_dict(kind, strategies):
    """The batch numbers its kets as a dict of `QubitState`s numbers the
    states: Alice's first, then each distinct strategy's forwarded states
    (`_measurement`, from `states()`) slot by slot, a state seen before
    keeping its id; the kets and ids are those of that dict, bit for bit.
    A strategy whose rotation leaves B92's pair as it is (delta 0, and
    5e-324, whose half angle's sine is 0 and cosine 1) forwards Alice's
    own ids."""
    sessions = [Session(1, ChannelModel(), s, 0) for s in strategies]
    batch = session._batch(kind, sessions)
    sent = session.protocol_states(kind)
    ids = {state: i for i, state in enumerate(sent)}
    forward = [
        [-1 if t is None else ids.setdefault(t, len(ids)) for t in _measurement(strategy, sent)[1]]
        for strategy in dict.fromkeys(strategies)
    ]
    want = np.array([state.vector for state in ids])
    assert np.array_equal(batch.vectors.view(np.uint64), want.view(np.uint64))
    assert batch.forward.tolist() == forward
    for j, strategy in enumerate(dict.fromkeys(strategies)):
        if strategy.rotation in (0.0, 5e-324):
            assert set(batch.forward[j].tolist()) <= {-1, 0, 1}
        else:
            assert min(batch.forward[j].tolist()) == -1 and max(batch.forward[j]) >= 2


def test_batch_builds_no_povm_objects(monkeypatch):
    """Sixty mismatch sessions, thirty per scheme, build their tables
    straight from element arrays: `Povm.__init__` never runs."""
    deltas = np.linspace(0.0, 1.5, 30).tolist()
    batches = [
        [Session(500, ChannelModel(), EveStrategy.of(EveKind.BASIS_MISMATCH, scheme, d), i)
         for i, d in enumerate(deltas)]
        for scheme in UsdSchemeKind
    ]
    calls = []
    init = Povm.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Povm, "__init__", counted)
    for sessions in batches:
        simulate_session(ProtocolKind.B92, sessions)
    assert len(calls) == 0


def test_batch_builds_no_qubit_states(monkeypatch):
    """The same sixty sessions rotate their frames as kets: no
    `QubitState` is built for a strategy's pair or forwarded states."""
    deltas = np.linspace(0.0, 1.5, 30).tolist()
    calls = []
    post_init = QubitState.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(QubitState, "__post_init__", counted)
    for scheme in UsdSchemeKind:
        sessions = [
            Session(500, ChannelModel(), EveStrategy.of(EveKind.BASIS_MISMATCH, scheme, d), i)
            for i, d in enumerate(deltas)
        ]
        simulate_session(ProtocolKind.B92, sessions)
    assert calls == []
    EveStrategy.of(EveKind.BASIS_MISMATCH, delta=0.3).states()
    assert len(calls) == 2  # the scalar form still builds its pair


class TestDeterminism:
    def test_equal_seeds_equal_transcripts(self):
        for _, kind, strategy, channel in CASES[:3]:
            a = one_session(kind, 2_000, channel, strategy, 7)
            b = one_session(kind, 2_000, channel, strategy, 7)
            np.testing.assert_array_equal(a.alice_bits, b.alice_bits)
            np.testing.assert_array_equal(a.arrived, b.arrived)
            np.testing.assert_array_equal(a.bob_minus, b.bob_minus)

    def test_different_seeds_differ(self):
        a = one_session(ProtocolKind.B92, 2_000, ChannelModel(), EveStrategy(EveKind.NONE), 1)
        b = one_session(ProtocolKind.B92, 2_000, ChannelModel(), EveStrategy(EveKind.NONE), 2)
        assert not np.array_equal(a.alice_bits, b.alice_bits)

    def test_counts_consistent(self):
        strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
        t = one_session(ProtocolKind.B92, 5_000, ChannelModel(0.3, 0.7), strategy, 5)
        # a lost pulse has no minus outcome, and a suppressed one never arrives
        assert np.sum(t.bob_minus) == np.sum(t.arrived & t.bob_minus) <= np.sum(t.arrived)
        assert not np.any(t.arrived[t.forwarded_ids < 0])

    def test_rejects_empty_session(self):
        with pytest.raises(ValueError):
            one_session(ProtocolKind.B92, 0, ChannelModel(), EveStrategy(EveKind.NONE), 1)


def test_statistics_invariant_under_substream_permutation():
    """Reassigning pulse indices permutes records without changing counts."""
    kind, channel = ProtocolKind.B92, ChannelModel(0.1, 0.9)
    strategy = EveStrategy.of(EveKind.USD_SUPPRESS)
    n, seed = 600, 99
    engine = one_session(kind, n, channel, strategy, seed)

    permuted = [
        _scalar_pulse(kind, strategy, channel, seed, n - 1 - i) for i in range(n)
    ]
    assert sum(bit for bit, *_ in permuted) == int(np.sum(engine.alice_bits))
    assert sum(arr for *_, arr, _b, _o in permuted) == int(np.count_nonzero(engine.arrived))
    assert sum(o == "minus" for *_, o in permuted) == int(np.sum(engine.bob_minus))
