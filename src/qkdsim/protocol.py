"""B92 and BB84 sifting and QBER estimation over a session's columns.

B92 encodes bit 0 on |z+> and bit 1 on |x+>; Bob keeps only "minus"
outcomes and decodes x- as 0, z- as 1. He only ever announces that a
minus occurred, never its direction, so sifting consumes nothing but the
minus flag. BB84 uses the standard four-state encoding with basis
reconciliation.

Both steps are pure functions. `sift` reads one session's column slices
and returns the disagreement bit of every sifted pulse, in pulse order;
that is all the estimate and the report need of the keys.

QBER estimation reveals the positions a partial Fisher-Yates shuffle
picks from the estimation stream. Its k draws are taken as one
counter-based block and the swaps are resolved with array operations, so
the positions and the stream's final state are those of the shuffle
written as a loop with one `integers` draw per step (the equivalence is
pinned by tests against that scalar loop).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .rng import RngStream


class ProtocolKind(Enum):
    B92 = "b92"
    BB84 = "bb84"


class EstimationError(ValueError):
    """Raised when error estimation is impossible (nothing sifted)."""


def sift(
    kind: ProtocolKind,
    alice_bits: np.ndarray,
    alice_bases: np.ndarray | None,
    arrived: np.ndarray,
    bob_bases: np.ndarray,
    bob_minus: np.ndarray,
) -> np.ndarray:
    """Disagreement bits of one session's sifted pulses, in pulse order.

    B92 keeps exactly the minus outcomes; Bob decodes x- as 0 and z- as 1,
    so a sifted bit disagrees where Alice's bit equals Bob's basis id.
    BB84 keeps arrived pulses whose bases matched; minus decodes as 1.
    """
    if kind is ProtocolKind.B92:
        return (alice_bits == bob_bases)[arrived & bob_minus]
    if alice_bases is None:
        raise ValueError("BB84 sifting needs Alice's basis column")
    return (alice_bits != bob_minus)[arrived & (bob_bases == alice_bases)]


# Below this many sifted pulses the sampler's position arrays are int32.
INT32_POSITIONS = 2**31


def _sample_without_replacement(m: int, k: int, rng: RngStream) -> np.ndarray:
    """Sorted first k entries of a partial Fisher-Yates shuffle of range(m).

    Step j swaps slots j and t_j = j + rng.integers(m - j). The k draws
    come as one `uniforms(k)` block, which leaves the stream where k
    `integers` calls would. Step i moves into slot t_i the value slot i
    held just before it: the value the last earlier step targeting slot i
    moved there, else i. These links point to earlier steps, and pointer
    doubling follows them to their roots. No step starts from a slot
    s >= k, so slot s ends with the value the last step targeting it moved
    there, else s. The chosen values are all the others: each targeted
    slot >= k, and each value < k that no slot >= k ends with. Slots and
    steps are int32 below `INT32_POSITIONS`, which halves the m-entry
    `last` array and the k-entry working arrays.
    """
    index = np.int32 if m < INT32_POSITIONS else np.int64
    steps = np.arange(k, dtype=index)
    span = m - steps
    draws = rng.uniforms(k)
    draws *= span
    targets = draws.astype(index)
    del draws
    span -= 1
    np.minimum(targets, span, out=targets)
    del span
    targets += steps
    # last[s]: last step that targeted slot s, -1 if none. A step that targets
    # its own slot moves nothing and no other link leads to it.
    last = np.full(m, -1, dtype=index)
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
    chosen = np.ones(m, dtype=bool)
    chosen[k:] = targeted
    chosen[carried[tail[targeted]]] = False
    return np.flatnonzero(chosen)


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
