"""B92 and BB84 session records, sifting and QBER estimation.

B92 encodes bit 0 on |z+> and bit 1 on |x+>; Bob keeps only "minus"
outcomes and decodes x- as 0, z- as 1. He only ever announces that a
minus occurred, never its direction, so sifting consumes nothing but the
minus flag. BB84 uses the standard four-state encoding with basis
reconciliation.

Session transcripts are stored column-wise (one numpy array per field)
so statistics over 10^5-pulse sessions stay cheap; `records()` exposes
the same data as per-pulse values.

QBER estimation reveals the positions a partial Fisher-Yates shuffle
picks from the estimation stream. Its k draws are taken as one
counter-based block and the swaps are resolved with array operations, so
the positions and the stream's final state are those of the shuffle
written as a loop with one `integers` draw per step (the equivalence is
pinned by tests against that scalar loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .quantum import QubitState, state_label
from .rng import RngStream

if TYPE_CHECKING:
    from .adversary import ChannelModel, EveStrategy


class ProtocolKind(Enum):
    B92 = "b92"
    BB84 = "bb84"


class EstimationError(ValueError):
    """Raised when error estimation is impossible (nothing sifted)."""


BASIS_LABELS = ("z", "x")
EVE_ACTION_LABELS = ("passed", "measured-resent", "suppressed")
EVE_PASSED, EVE_MEASURED_RESENT, EVE_SUPPRESSED = 0, 1, 2


@dataclass(frozen=True)
class PulseRecord:
    """One end-to-end transmission event."""

    index: int
    alice_bit: int
    alice_basis: str | None
    sent_state: QubitState
    eve_action: str
    eve_forwarded: str | None
    arrived: bool
    bob_basis: str
    bob_outcome: str

    def __post_init__(self) -> None:
        if not self.arrived and self.bob_outcome != "null":
            raise ValueError("lost pulse must have a null outcome")
        if self.eve_action == "suppressed" and self.arrived:
            raise ValueError("suppressed pulse cannot arrive")


@dataclass
class SessionTranscript:
    """Column-wise record of one simulated session.

    `bob_minus` is meaningful only where `arrived` is True; lost pulses
    have outcome "null". Sifting and estimation fill in the key fields.
    """

    protocol: ProtocolKind
    channel: "ChannelModel"
    strategy: "EveStrategy"
    master_seed: int
    n_pulses: int
    alice_bits: np.ndarray
    alice_bases: np.ndarray | None
    sent_ids: np.ndarray
    state_table: tuple[QubitState, ...]
    eve_actions: np.ndarray
    forwarded_ids: np.ndarray
    arrived: np.ndarray
    bob_bases: np.ndarray
    bob_minus: np.ndarray
    sifted_indices: np.ndarray | None = None
    alice_key: np.ndarray | None = None
    bob_key: np.ndarray | None = None
    revealed_indices: np.ndarray | None = None
    qber: float | None = None
    state_labels: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.state_labels = tuple(state_label(s) for s in self.state_table)

    def record(self, i: int) -> PulseRecord:
        forwarded = int(self.forwarded_ids[i])
        arrived = bool(self.arrived[i])
        if not arrived:
            outcome = "null"
        else:
            outcome = "minus" if self.bob_minus[i] else "plus"
        return PulseRecord(
            index=i,
            alice_bit=int(self.alice_bits[i]),
            alice_basis=None if self.alice_bases is None else BASIS_LABELS[self.alice_bases[i]],
            sent_state=self.state_table[self.sent_ids[i]],
            eve_action=EVE_ACTION_LABELS[self.eve_actions[i]],
            eve_forwarded=None if forwarded < 0 else self.state_labels[forwarded],
            arrived=arrived,
            bob_basis=BASIS_LABELS[self.bob_bases[i]],
            bob_outcome=outcome,
        )

    def records(self) -> list[PulseRecord]:
        return [self.record(i) for i in range(self.n_pulses)]

    @property
    def n_arrived(self) -> int:
        return int(np.sum(self.arrived))

    @property
    def n_null(self) -> int:
        return self.n_pulses - self.n_arrived


def sift(kind: ProtocolKind, transcript: SessionTranscript) -> np.ndarray:
    """Public sifting; fills the transcript's sifted indices and raw keys.

    B92 keeps exactly the minus outcomes (Bob decodes x- as 0, z- as 1).
    BB84 keeps arrived pulses whose bases matched (minus decodes as 1).
    """
    if kind is ProtocolKind.B92:
        mask = transcript.arrived & transcript.bob_minus
        bob_bits = np.where(transcript.bob_bases == 1, 0, 1)
    else:
        if transcript.alice_bases is None:
            raise ValueError("BB84 sifting needs Alice's basis column")
        mask = transcript.arrived & (transcript.bob_bases == transcript.alice_bases)
        bob_bits = transcript.bob_minus.astype(np.int8)
    indices = np.nonzero(mask)[0]
    transcript.sifted_indices = indices
    transcript.alice_key = transcript.alice_bits[indices].astype(np.int8)
    transcript.bob_key = bob_bits[indices].astype(np.int8)
    return indices


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
    slot >= k, and each value < k that no slot >= k ends with.
    """
    steps = np.arange(k, dtype=np.int64)
    span = m - steps
    targets = steps + np.minimum((rng.uniforms(k) * span).astype(np.int64), span - 1)
    # last[s]: last step that targeted slot s, -1 if none. A step that targets
    # its own slot moves nothing and no other link leads to it.
    last = np.full(m, -1, dtype=np.int64)
    np.maximum.at(last, targets, steps)
    # carried[j] links step j to the step whose start value it moves; rooted, it is that value
    carried = np.where(last[:k] >= 0, last[:k], steps)
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
    transcript: SessionTranscript, reveal_fraction: float, rng: RngStream
) -> tuple[float, np.ndarray]:
    """Reveal a random key subsequence, estimate the error rate, discard it.

    Samples ceil(reveal_fraction * |sifted|) positions without
    replacement; the revealed bits are removed from both keys.
    """
    if not (0.0 < reveal_fraction <= 1.0):
        raise ValueError(f"reveal_fraction must be in (0, 1], got {reveal_fraction}")
    if transcript.sifted_indices is None:
        raise EstimationError("sift the transcript before estimating")
    m = len(transcript.sifted_indices)
    if m == 0:
        raise EstimationError("cannot estimate the error rate of an empty sifted key")
    k = math.ceil(reveal_fraction * m)
    positions = _sample_without_replacement(m, k, rng)
    disagreements = int(np.sum(transcript.alice_key[positions] != transcript.bob_key[positions]))
    qber = disagreements / k
    revealed = transcript.sifted_indices[positions]
    keep = np.ones(m, dtype=bool)
    keep[positions] = False
    transcript.alice_key = transcript.alice_key[keep]
    transcript.bob_key = transcript.bob_key[keep]
    transcript.revealed_indices = revealed
    transcript.qber = qber
    return qber, revealed
