"""B92 and BB84 sifting and QBER estimation over a session's columns.

B92 encodes bit 0 on |z+> and bit 1 on |x+>; Bob keeps only "minus"
outcomes and decodes x- as 0, z- as 1. He only ever announces that a
minus occurred, never its direction, so sifting consumes nothing but the
minus flag. BB84 uses the standard four-state encoding with basis
reconciliation.

Both steps are pure functions. Sifting is local to a pulse: `sift_mask`
says which pulses are sifted and `disagreements` which would decode to
the wrong bit, so they run over a whole batch of sessions' columns at
once, and `sift` composes them into the disagreement bit of every sifted
pulse, in pulse order; that is all the estimate and the report need of
the keys. `session_counts` cuts a batch column's flags into per-session
counts.

QBER estimation reveals the positions a partial Fisher-Yates shuffle
picks from the estimation stream. Its k draws are taken as one
counter-based block and the swaps are resolved with array operations, so
the positions and the stream's final state are those of the shuffle
written as a loop with one integer draw per step (the equivalence is
pinned by tests against that scalar loop). `estimate_qber_batch` does the
same for many sessions at once, every session's draws from one call and
the swaps of all of them resolved by the same code as one shuffle.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .rng import RngStream, stream_uniforms


class ProtocolKind(Enum):
    B92 = "b92"
    BB84 = "bb84"


class EstimationError(ValueError):
    """Raised when error estimation is impossible (nothing sifted)."""


def sift_mask(
    kind: ProtocolKind,
    alice_bases: np.ndarray | None,
    arrived: np.ndarray,
    bob_bases: np.ndarray,
    bob_minus: np.ndarray,
) -> np.ndarray:
    """Which pulses are sifted. B92 keeps exactly the minus outcomes; BB84
    keeps arrived pulses whose bases matched."""
    if kind is ProtocolKind.B92:
        return arrived & bob_minus
    if alice_bases is None:
        raise ValueError("BB84 sifting needs Alice's basis column")
    return arrived & (bob_bases == alice_bases)


def disagreements(
    kind: ProtocolKind, alice_bits: np.ndarray, bob_bases: np.ndarray, bob_minus: np.ndarray
) -> np.ndarray:
    """Per pulse, whether Bob's bit would disagree with Alice's. B92: Bob
    decodes x- as 0 and z- as 1, so the bits disagree where Alice's bit
    equals Bob's basis id. BB84: minus decodes as 1."""
    if kind is ProtocolKind.B92:
        return alice_bits == bob_bases
    return alice_bits != bob_minus


def sift(
    kind: ProtocolKind,
    alice_bits: np.ndarray,
    alice_bases: np.ndarray | None,
    arrived: np.ndarray,
    bob_bases: np.ndarray,
    bob_minus: np.ndarray,
) -> np.ndarray:
    """Disagreement bits of the sifted pulses, in pulse order."""
    return disagreements(kind, alice_bits, bob_bases, bob_minus)[
        sift_mask(kind, alice_bases, arrived, bob_bases, bob_minus)
    ]


def session_counts(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Set entries of `flags`, a batch column, in each session's range
    `starts[i]:starts[i + 1]` (ranges are never empty). A lone session may
    be long, so it is counted without `reduceat`'s int64 copy of the column."""
    if len(starts) == 2:
        return np.array([np.count_nonzero(flags)])
    return np.add.reduceat(flags, starts[:-1], dtype=np.int64)


# Below this many sifted pulses the sampler's position arrays are int32.
INT32_POSITIONS = 2**31


def _draw_offsets(draws: np.ndarray, span: np.ndarray) -> np.ndarray:
    """floor(draws * span) as ints of `span`'s dtype, kept below `span`:
    each step's pick among the `span` slots it may swap with, counted from
    its own. `draws` and `span` are overwritten."""
    draws *= span
    offsets = draws.astype(span.dtype)
    del draws
    span -= 1
    np.minimum(offsets, span, out=offsets)
    return offsets


def _resolve(n_slots: int, offsets: np.ndarray) -> np.ndarray:
    """Sorted chosen values of a partial Fisher-Yates shuffle of
    range(n_slots) whose step j swaps slots j and j + offsets[j].

    Step i moves into slot t_i the value slot i held just before it: the
    value the last earlier step targeting slot i moved there, else i. These
    links point to earlier steps, and pointer doubling follows them to
    their roots. No step starts from a slot s >= k = len(offsets), so slot
    s ends with the value the last step targeting it moved there, else s.
    The chosen values are all the others: each targeted slot >= k, and
    each value < k that no slot >= k ends with. Slots and steps have the
    dtype of `offsets`, which is overwritten.
    """
    k = len(offsets)
    steps = np.arange(k, dtype=offsets.dtype)
    targets = offsets
    del offsets
    targets += steps
    # last[s]: last step that targeted slot s, -1 if none. A step that targets
    # its own slot moves nothing and no other link leads to it.
    last = np.full(n_slots, -1, dtype=targets.dtype)
    np.maximum.at(last, targets, steps)
    del targets
    # carried[j] links step j to the step whose start value it moves; rooted, it is that value
    head = last[:k]
    carried = np.where(head >= 0, head, steps)
    del steps
    while True:
        rooted = carried[carried]
        if np.array_equal(rooted, carried):
            break
        carried = rooted
    tail = last[k:]
    targeted = tail >= 0
    chosen = np.ones(n_slots, dtype=bool)
    chosen[k:] = targeted
    chosen[carried[tail[targeted]]] = False
    return np.flatnonzero(chosen)


def _sample_without_replacement(m: int, k: int, rng: RngStream) -> np.ndarray:
    """Sorted first k entries of a partial Fisher-Yates shuffle of range(m).

    Step j swaps slots j and j + min(floor(u_j * (m - j)), m - j - 1), u_j
    the stream's uniform j. The k draws come as one `uniforms(k)` block,
    which leaves the stream where k `uniform()` calls would, and
    `_resolve` applies the swaps. Slots and steps are
    int32 below `INT32_POSITIONS`, which halves the m-entry `last` array
    and the k-entry working arrays. The arrays are passed on, not named,
    so each is freed as soon as it is used up.
    """
    index = np.int32 if m < INT32_POSITIONS else np.int64
    return _resolve(m, _draw_offsets(rng.uniforms(k), np.arange(m, m - k, -1, dtype=index)))


def estimate_qber(
    errors: np.ndarray, reveal_fraction: float, rng: RngStream
) -> tuple[float, np.ndarray]:
    """Reveal a random subsequence of the sifted key and its error rate.

    Samples ceil(reveal_fraction * len(errors)) positions of the sifted
    key without replacement and returns the fraction of them that
    disagree, with the sorted positions. The revealed bits are discarded,
    so the key keeps len(errors) - len(positions) bits.
    """
    if not (0.0 < reveal_fraction <= 1.0):
        raise ValueError(f"reveal_fraction must be in (0, 1], got {reveal_fraction}")
    m = len(errors)
    if m == 0:
        raise EstimationError("cannot estimate the error rate of an empty sifted key")
    k = math.ceil(reveal_fraction * m)
    positions = _sample_without_replacement(m, k, rng)
    return int(np.count_nonzero(errors[positions])) / k, positions


def _sample_batch_without_replacement(
    m: np.ndarray, k: np.ndarray, seeds: np.ndarray
) -> np.ndarray:
    """`_sample_without_replacement(m[i], k[i], RngStream(seeds[i]))` for
    every session i at once, the sessions' ranges laid end to end: the
    chosen positions of all of them in that batch-wide numbering, sorted.

    Step j of session i draws the stream's uniform j, so every session's
    draws come from one `stream_uniforms` call. `_resolve` then runs the
    batch as one shuffle over renumbered slots: first every session's
    first k slots, session after session, so that the batch's step j
    starts from slot j, then every session's other slots, in the same
    order. A swap past its session's first k slots skips the first slots
    of the later sessions and the other slots of the earlier ones. No step
    reaches another session's slots, so every link stays inside its
    session. All indices are int32, so the m must sum to less than 2**31;
    a multi-session batch holds at most `BLOCK` pulses.
    """
    m, k = m.astype(np.int32), k.astype(np.int32)
    rest = m - k
    n_steps, n_slots = int(k.sum()), int(m.sum())
    first_step = np.cumsum(k, dtype=np.int32) - k
    first_rest = n_steps + np.cumsum(rest, dtype=np.int32) - rest  # number of each session's slot k
    start = np.cumsum(m, dtype=np.int32) - m  # batch-wide position of each session's slot 0
    local = np.arange(n_steps, dtype=np.int32) - np.repeat(first_step, k)
    offsets = _draw_offsets(stream_uniforms(np.repeat(seeds, k), local), np.repeat(m, k) - local)
    past_first = offsets >= np.repeat(k, k) - local
    offsets[past_first] += np.repeat(first_rest - first_step - k, k)[past_first]
    # batch-wide position of every renumbered slot
    position = np.concatenate([
        np.repeat(start - first_step, k) + np.arange(n_steps, dtype=np.int32),
        np.repeat(start + k - first_rest, rest) + np.arange(n_steps, n_slots, dtype=np.int32),
    ])
    return np.sort(position[_resolve(n_slots, offsets)])


def estimate_qber_batch(
    errors: np.ndarray, sifted: np.ndarray, reveal_fractions: np.ndarray, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`estimate_qber` of many sessions at once.

    Session i's disagreement bits are the next `sifted[i]` of `errors`,
    and its estimation stream is `RngStream(seeds[i])`. Returns each
    session's error rate over its revealed positions (NaN if it sifted
    nothing, so revealed nothing) and its number of revealed positions,
    both as `estimate_qber` would return them session by session.
    """
    if not np.all((0.0 < reveal_fractions) & (reveal_fractions <= 1.0)):
        raise ValueError("reveal fractions must be in (0, 1]")
    k = np.ceil(reveal_fractions * sifted).astype(np.int64)
    positions = _sample_batch_without_replacement(sifted, k, seeds)
    wrong = np.zeros(len(positions) + 1, dtype=np.int64)
    np.cumsum(errors[positions], out=wrong[1:])
    ends = np.cumsum(k)
    qber = np.full(len(k), np.nan)
    np.divide(wrong[ends] - wrong[ends - k], k, out=qber, where=k > 0)
    return qber, k
