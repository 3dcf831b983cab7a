"""B92 and BB84 sifting and QBER estimation over the engine's columns.

B92 encodes bit 0 on |z+> and bit 1 on |x+>; Bob keeps only "minus"
outcomes and decodes x- as 0, z- as 1. He only ever announces that a
minus occurred, never its direction, so sifting consumes nothing but the
minus flag. BB84 uses the standard four-state encoding with basis
reconciliation.

Both steps are pure functions. Sifting is local to a pulse: `sift_mask`
says which pulses are sifted and `disagreements` which would decode to
the wrong bit, so they run over any range of pulses (the engine runs
them on each block as it is drawn), and `sift` composes them into the
disagreement bit of every sifted pulse, in pulse order; that is all the
estimate and the report need of the keys.

QBER estimation reveals the positions a partial Fisher-Yates shuffle
picks from each session's estimation stream, and needs only two numbers
of them: how many there are and how many disagree. `estimate_qber_batch`
counts both for many sessions at once, with no list of positions: every
session's draws come from one counter-based call, and the swaps of all
of them are resolved with array operations as one shuffle. The counts
are those of the shuffle written as a loop with one integer draw per
step (pinned by tests against that scalar loop), and a session's counts
do not depend on its batch; `estimate_qber` is a batch of one.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .rng import stream_uniforms


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


# Below this many sifted pulses in a batch the sampler's indices are int32.
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


def _resolve(n_slots: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a partial Fisher-Yates shuffle of range(n_slots) whose step j
    swaps slots j and j + offsets[j] leaves its values: which slots
    s >= k = len(offsets) some step targeted, as a mask over them, and the
    values < k those slots end with. The shuffle chooses the values its
    first k slots end with: s for every targeted slot s >= k, and every
    value < k that is not among those returned.

    Step i moves into slot t_i the value slot i held just before it: the
    value the last earlier step targeting slot i moved there, else i. These
    links point to earlier steps, and pointer doubling follows them to
    their roots. No step starts from a slot s >= k, so slot s ends with the
    value the last step targeting it moved there, else s. Slots and steps
    have the dtype of `offsets`, which is overwritten.
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
    carried = last[:k]
    np.copyto(carried, steps, where=carried < 0)
    del steps
    targeted = last[k:] >= 0
    moved = last[k:][targeted]
    del last  # `carried` views it, so all of it is freed at the first doubling step
    while True:
        rooted = carried[carried]
        if np.array_equal(rooted, carried):
            break
        carried = rooted
    return targeted, carried[moved]


def _session_counts(bits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """How many bits are set in each session's run of `bits`, the runs of
    `lengths` bits laid end to end."""
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return np.diff(np.searchsorted(np.flatnonzero(bits), bounds))


def _revealed_errors(
    errors: np.ndarray, m: np.ndarray, k: np.ndarray, seeds: np.ndarray
) -> np.ndarray:
    """Per session i, how many of the k[i] positions a partial Fisher-Yates
    shuffle of range(m[i]) chooses hold a disagreement, session i's bits
    being the next m[i] of `errors`.

    Step j of session i swaps its slots j and j + min(floor(u_j * (m[i] - j)),
    m[i] - j - 1), u_j the uniform j of `RngStream(seeds[i])`, so every
    session's draws come from one `stream_uniforms` call. `_resolve` then
    runs the batch as one shuffle over renumbered slots: first every
    session's first k slots, session after session, so that the batch's
    step j starts from slot j, then every session's other slots, in the
    same order. A swap past its session's first k slots skips the first
    slots of the later sessions and the other slots of the earlier ones.
    No step reaches another session's slots, so every link stays inside
    its session. The disagreements are counted over the bits in that
    order: those on the first k slots whose values stay there, plus those
    on the other slots some step targeted. Indices are int32 below
    `INT32_POSITIONS` sifted pulses in all, which halves the slot array.
    The draws are passed on, not named, so they are freed once used up.
    """
    index = np.int32 if len(errors) < INT32_POSITIONS else np.int64
    m, k = m.astype(index), k.astype(index)
    rest = m - k
    n_steps = int(k.sum())
    first_step = np.cumsum(k, dtype=index) - k
    first_rest = n_steps + np.cumsum(rest, dtype=index) - rest  # number of each session's slot k
    local = np.arange(n_steps, dtype=index) - np.repeat(first_step, k)
    offsets = _draw_offsets(stream_uniforms(np.repeat(seeds, k), local), np.repeat(m, k) - local)
    past_first = offsets >= np.repeat(k, k) - local
    del local
    offsets += np.repeat(first_rest - first_step - k, k) * past_first
    del past_first
    targeted, left = _resolve(len(errors), offsets)
    ends = np.cumsum(m)
    runs = np.split(errors, np.column_stack([ends - rest, ends]).ravel()[:-1])
    first = np.concatenate(runs[0::2])
    first[left] = False
    other = np.concatenate(runs[1::2])
    other &= targeted
    return _session_counts(first, k) + _session_counts(other, rest)


def estimate_qber_batch(
    errors: np.ndarray, sifted: np.ndarray, reveal_fractions: np.ndarray, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reveal a random subset of each session's sifted key and its error rate.

    Session i's disagreement bits are the next `sifted[i]` of `errors`,
    and its estimation stream is `RngStream(seeds[i])`. It reveals
    k = ceil(reveal_fractions[i] * sifted[i]) of them, chosen without
    replacement by the stream's partial Fisher-Yates shuffle
    (`_revealed_errors`), and discards them, so its key keeps the other
    sifted[i] - k. Returns each session's fraction of revealed bits that
    disagree (NaN if it sifted nothing, so revealed nothing) and each k.
    A session's results do not depend on the batch it runs in.
    """
    if not np.all((0.0 < reveal_fractions) & (reveal_fractions <= 1.0)):
        raise ValueError("reveal fractions must be in (0, 1]")
    k = np.ceil(reveal_fractions * sifted).astype(np.int64)
    wrong = _revealed_errors(errors, sifted, k, seeds)
    qber = np.full(len(k), np.nan)
    np.divide(wrong, k, out=qber, where=k > 0)
    return qber, k


def estimate_qber(errors: np.ndarray, reveal_fraction: float, seed: int) -> tuple[float, int]:
    """`estimate_qber_batch` of one session, whose estimation stream is
    `RngStream(seed)`: its error rate and number of revealed bits."""
    if len(errors) == 0:
        raise EstimationError("cannot estimate the error rate of an empty sifted key")
    qber, revealed = estimate_qber_batch(
        errors, np.array([len(errors)]), np.array([reveal_fraction]), np.array([seed], np.uint64)
    )
    return float(qber[0]), int(revealed[0])
