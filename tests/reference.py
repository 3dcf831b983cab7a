"""Scalar per-pulse reference pipeline: the oracle the array engine is
checked against.

Each function handles one pulse with an `RngStream` and consumes draws in
the order `qkdsim.session` documents, so composing them pulse by pulse
makes every draw, and must reproduce each draw the engine makes. Nothing in the
package imports this module. The engine keeps no per-pulse column past
its block, and draws Bob's columns only for the pulses that arrive;
`simulate_batch` scatters those back to every pulse, marking where Bob
drew nothing, and lays the blocks' columns end to end as a
`SessionBatch`, the engine's side of such comparisons. `one_session` is
that of a batch of one session. The columns hold neither Alice's
state ids nor Eve's actions, since both follow from other columns;
`sent_ids`, `eve_actions` and `session_columns` derive them for
comparisons. `csv_lines` renders reports to CSV one report and
one cell at a time, the oracle for `report_csv_rows`, which builds the
leaf columns whole and formats each row's cells as it zips the columns
into it, with no cache.
`integers` (a bounded integer draw) and `verify_unambiguous_constraints`
serve only the tests, so they live here rather than in the package. So
do `uniforms` (a block of one stream's draws) and the reveal samplers
that list positions (`sample_positions`, `sample_batch_positions`): the
package only counts the revealed disagreements, and these are the oracle
those counts are checked against, themselves checked against the scalar
`sample_without_replacement`. So do the one-state-at-a-time rules the
package's array rules are checked against: `state_label`, the oracle for
`quantum.state_labels`, `scalar_projector`, that for `quantum.outer`, and
`scalar_rotate_y`, that for `quantum.rotate_kets`. The engine numbers a
batch's kets as rows of amplitudes; `SessionBatch.states` holds them as
`QubitState`s, built from those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from qkdsim.adversary import ChannelModel, EveKind, EveStrategy, forwarded_state_symmetry
from qkdsim import protocol
from qkdsim.protocol import ProtocolKind, sift
from qkdsim.quantum import (
    Povm,
    QubitState,
    REFERENCE_STATES,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    _LABEL_TOL,
    born_probabilities,
    inner_product,
    measurement_probs,
    orthogonal_state,
    projective_povm,
    projector,
)
from qkdsim.rng import _GOLDEN, _MASK, RngStream, derive_seed, stream_uniforms
from qkdsim import session
from qkdsim.session import Session
from qkdsim.usd import UsdSchemeKind, idp_povm, naive_frame_povms

BASIS_LABELS = ("z", "x")
COLUMNS = ("alice_bits", "alice_bases", "forwarded_ids", "arrived", "bob_bases", "bob_minus")
NO_DRAW = -1  # Bob's basis on a pulse that did not arrive: he drew nothing for it


@dataclass
class SessionBatch:
    """Column-wise record of consecutive sessions of one protocol.

    Session i owns pulses `starts[i]:starts[i + 1]` of every column, and
    `states` numbers the batch's states as `qkdsim.session.SessionCounts`
    numbers its kets, state j built from row j of its `vectors`
    (`batch_states`). A forwarded id indexes `states`, and -1 means Eve
    suppressed the pulse; ids are int32. Wherever the pulse did not
    arrive, `bob_bases` is `NO_DRAW` and `bob_minus` False.
    """

    protocol: ProtocolKind
    n_pulses: int
    starts: np.ndarray
    states: tuple[QubitState, ...]
    alice_bits: np.ndarray
    alice_bases: np.ndarray | None
    forwarded_ids: np.ndarray
    arrived: np.ndarray
    bob_bases: np.ndarray
    bob_minus: np.ndarray


def _full_columns(block):
    """A block's columns with Bob's, which cover the arrived pulses only,
    scattered back to every pulse as a mask and the `NO_DRAW` marker."""
    n = len(block.alice_bits)
    arrived = np.zeros(n, dtype=bool)
    arrived[block.arrived] = True
    bob_bases = np.full(n, NO_DRAW, dtype=block.bob_bases.dtype)
    bob_bases[block.arrived] = block.bob_bases
    bob_minus = np.zeros(n, dtype=bool)
    bob_minus[block.arrived] = block.bob_minus
    return block._replace(arrived=arrived, bob_bases=bob_bases, bob_minus=bob_minus)


def simulate_batch(kind, sessions) -> SessionBatch:
    """The engine's columns of a batch: every block's, end to end, Bob's
    scattered back to full length."""
    batch = session._batch(kind, sessions)
    blocks = [_full_columns(block) for block in session._blocks(batch, 0, batch.n_pulses)]

    def column(name):
        parts = [getattr(block, name) for block in blocks]
        return None if parts[0] is None else np.concatenate(parts)

    states = batch_states(batch)
    return SessionBatch(
        kind, batch.n_pulses, batch.starts, states, *(column(name) for name in COLUMNS)
    )


def batch_states(batch) -> tuple[QubitState, ...]:
    """The kets a batch or its counts number, row j of `vectors`, as
    `QubitState`s in that order."""
    return tuple(QubitState(*row) for row in batch.vectors.tolist())


def one_session(kind, n_pulses, channel, strategy, master_seed):
    """The engine's columns of one session: a batch of one."""
    return simulate_batch(kind, [Session(n_pulses, channel, strategy, master_seed)])


def session_columns(batch, i: int = 0) -> dict:
    """Session i's slice of every batch column (None stays None), the
    batch's states, Alice's state ids derived from the slice, and the
    states its forwarded ids name (None for a suppressed pulse). Ids
    number the states of the whole batch, so only the states they name
    compare across batches."""
    a, b = batch.starts[i], batch.starts[i + 1]
    columns = {name: getattr(batch, name) for name in COLUMNS}
    columns = {name: None if c is None else c[a:b] for name, c in columns.items()}
    columns["sent_ids"] = sent_ids(columns["alice_bits"], columns["alice_bases"])
    columns["states"] = batch.states
    named = np.empty(len(batch.states) + 1, dtype=object)
    named[:-1] = batch.states  # id -1 picks the trailing None
    columns["forwarded_states"] = named[columns["forwarded_ids"]]
    return columns


def sent_ids(alice_bits, alice_bases):
    """Alice's state ids: bit + 2 * basis (BB84), the bit alone (B92)."""
    ids = alice_bits.astype(np.int32)
    if alice_bases is not None:
        ids += 2 * alice_bases
    return ids


def eve_actions(strategy: EveStrategy, forwarded_ids) -> np.ndarray:
    """Eve's action per pulse as `eve_apply` names it: a pulse she forwards
    nothing for (id -1) was suppressed; any other was passed on unmeasured
    with no Eve, else measured and resent."""
    forwarded = "passed" if strategy.kind is EveKind.NONE else "measured-resent"
    return np.where(forwarded_ids >= 0, forwarded, "suppressed")


def sift_session(batch, i: int = 0):
    """`protocol.sift` over session i of a batch: its disagreement bits."""
    c = session_columns(batch, i)
    return sift(
        batch.protocol, c["alice_bits"], c["alice_bases"], c["arrived"], c["bob_bases"], c["bob_minus"]
    )


def symmetry(batch, i: int = 0) -> tuple[int, int]:
    """`forwarded_state_symmetry` of session i alone, from a bincount of
    its forwarded ids and the labels of the batch's states."""
    labels = np.array([state_label(s) for s in batch.states])
    ids = session_columns(batch, i)["forwarded_ids"]
    counts = np.bincount(ids[ids >= 0], minlength=len(labels))
    z, x = forwarded_state_symmetry(counts[None], labels)
    return int(z[0]), int(x[0])


# -- scalar state rules ---------------------------------------------------------


def state_label(state: QubitState) -> str:
    """Name a state by its `REFERENCE_STATES` key (else "other"), one state
    at a time: the oracle for `quantum.state_labels`.

    Matching is up to global phase, via |<ref|state>|^2 within `_LABEL_TOL`
    of 1; the modulus is squared by a product, which rounds once, as
    `state_labels` squares it.
    """
    for label, ref in REFERENCE_STATES.items():
        modulus = abs(inner_product(ref, state))
        if abs(modulus * modulus - 1.0) <= _LABEL_TOL:
            return label
    return "other"


def scalar_rotate_y(state: QubitState, angle: float) -> QubitState:
    """`state` rotated by `angle` about the Bloch y axis in Python complex
    arithmetic, one state at a time: the oracle for `quantum.rotate_kets`."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return QubitState(c * state.amp0 - s * state.amp1, s * state.amp0 + c * state.amp1)


def scalar_projector(state: QubitState) -> np.ndarray:
    """|psi><psi| with each entry one Python complex product: the oracle
    for `quantum.outer`."""
    kets = (state.amp0, state.amp1)
    return np.array([[a * b.conjugate() for b in kets] for a in kets], dtype=complex)


# -- report rendering ---------------------------------------------------------

# a decision's `method` is in the JSON report but not in the CSV
_DECISION_COLUMNS = ("statistic", "p_value", "flagged", "alpha")


def csv_row(report) -> dict:
    """One report's CSV row, flattened from `to_dict()` in order: sections
    drop their name, each test prefixes its decision fields with its own."""
    row = {}
    for section, value in report.to_dict().items():
        if section == "tests":
            for test, decision in value.items():
                for name in _DECISION_COLUMNS:
                    row[f"{test}_{name}"] = None if decision is None else decision[name]
        elif isinstance(value, dict):
            row.update(value)
        else:
            row[section] = value
    return row


def csv_cell(value) -> str:
    """One CSV cell: None empty, bools lower case, any float (numpy's too)
    by the float's own repr, JSON's rule, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def csv_lines(reports) -> list[str]:
    """`report_csv_rows` rendered one report and one cell at a time."""
    rows = [csv_row(report) for report in reports]
    if not rows:
        return []
    return [",".join(rows[0])] + [",".join(csv_cell(v) for v in row.values()) for row in rows]


# -- random streams and Born sampling ---------------------------------------


def substream(seed: int, *keys: int) -> RngStream:
    """Stream seeded by `derive_seed(seed, *keys)`."""
    return RngStream(derive_seed(seed, *keys))


def integers(rng: RngStream, n: int) -> int:
    """Uniform integer in [0, n) from one `uniform()` draw of `rng`."""
    if n <= 0:
        raise ValueError("n must be positive")
    return min(int(rng.uniform() * n), n - 1)


def sample_index(probs: Sequence[float], rng: RngStream) -> int:
    """Inverse-CDF draw over `probs` in declared order.

    Rounding remainders fall to the last index.
    """
    u = rng.uniform()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def sample_outcome(state: QubitState, povm: Povm, rng: RngStream) -> int:
    """Sample one outcome, an element's index, by the Born rule; mutates only `rng`."""
    return sample_index(born_probabilities(state, povm), rng)


def sample_without_replacement(m: int, k: int, rng: RngStream) -> list[int]:
    """First k entries of a partial Fisher-Yates shuffle of range(m), one draw per step."""
    positions = list(range(m))
    for j in range(k):
        t = j + integers(rng, m - j)
        positions[j], positions[t] = positions[t], positions[j]
    return positions[:k]


def uniforms(rng: RngStream, k: int) -> np.ndarray:
    """The next k `rng.uniform()` values as one `stream_uniforms` block,
    leaving `rng` where k `uniform()` calls would."""
    draws = stream_uniforms(np.full(k, rng._state, dtype=np.uint64), np.arange(k))
    rng._state = (rng._state + k * _GOLDEN) & _MASK
    return draws


def resolve_positions(n_slots: int, offsets: np.ndarray) -> np.ndarray:
    """Sorted chosen values of the partial Fisher-Yates shuffle that
    `protocol._resolve` resolves: its targeted slots >= k and the values
    < k that no slot >= k ends with."""
    k = len(offsets)
    targeted, left = protocol._resolve(n_slots, offsets)
    chosen = np.ones(n_slots, dtype=bool)
    chosen[k:] = targeted
    chosen[left] = False
    return np.flatnonzero(chosen)


def _index_dtype(n_slots: int):
    return np.int32 if n_slots < protocol.INT32_POSITIONS else np.int64


def sample_positions(m: int, k: int, rng: RngStream) -> np.ndarray:
    """Sorted first k entries of a partial Fisher-Yates shuffle of range(m),
    its k draws taken as one `uniforms` block and its swaps resolved with
    array operations: what `sample_without_replacement` picks, draw for draw."""
    span = np.arange(m, m - k, -1, dtype=_index_dtype(m))
    return resolve_positions(m, protocol._draw_offsets(uniforms(rng, k), span))


def sample_batch_positions(m: np.ndarray, k: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """`sample_positions(m[i], k[i], RngStream(seeds[i]))` for every session
    i at once, the sessions' ranges laid end to end: the chosen positions of
    all of them in that batch-wide numbering, sorted. The swaps are resolved
    as one shuffle over the slots renumbered as `protocol._revealed_errors`
    does, and a batch-wide map takes each slot back to its position."""
    index = _index_dtype(int(m.sum()))
    m, k = m.astype(index), k.astype(index)
    rest = m - k
    n_steps, n_slots = int(k.sum()), int(m.sum())
    first_step = np.cumsum(k, dtype=index) - k
    first_rest = n_steps + np.cumsum(rest, dtype=index) - rest
    start = np.cumsum(m, dtype=index) - m  # batch-wide position of each session's slot 0
    local = np.arange(n_steps, dtype=index) - np.repeat(first_step, k)
    draws = stream_uniforms(np.repeat(seeds, k), local)
    offsets = protocol._draw_offsets(draws, np.repeat(m, k) - local)
    past_first = offsets >= np.repeat(k, k) - local
    offsets[past_first] += np.repeat(first_rest - first_step - k, k)[past_first]
    position = np.concatenate([
        np.repeat(start - first_step, k) + np.arange(n_steps, dtype=index),
        np.repeat(start + k - first_rest, rest) + np.arange(n_steps, n_slots, dtype=index),
    ])
    return np.sort(position[resolve_positions(n_slots, offsets)])


# -- unambiguous discrimination ----------------------------------------------


@dataclass(frozen=True)
class UsdOutcome:
    """Conclusive identification of state 0 or 1, or inconclusive (None)."""

    identified: int | None

    def __post_init__(self) -> None:
        if self.identified not in (None, 0, 1):
            raise ValueError("identified must be 0, 1 or None")

    @property
    def conclusive(self) -> bool:
        return self.identified is not None


INCONCLUSIVE = UsdOutcome(None)


def scalar_idp_povm(state0: QubitState, state1: QubitState) -> Povm:
    """The optimal discrimination POVM built pair by pair with the scalar
    state algebra: the oracle `usd.idp_elements` is checked against."""
    s = abs(inner_product(state0, state1))
    scale = 1.0 / (1.0 + s)
    e0 = scale * projector(orthogonal_state(state1))
    e1 = scale * projector(orthogonal_state(state0))
    inconclusive = np.eye(2, dtype=complex) - e0 - e1
    inconclusive = (inconclusive + inconclusive.conj().T) / 2.0
    return Povm((e0, e1, inconclusive))


def scalar_naive_frame_povms(rotation: float) -> tuple[Povm, Povm]:
    """The naive scheme's two frames built from `scalar_rotate_y`'d states:
    the oracle the projectors of `usd.frame_kets` are checked against."""
    return tuple(
        projective_povm(scalar_rotate_y(plus, rotation), scalar_rotate_y(minus, rotation))
        for plus, minus in ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS))
    )


UNAMBIGUOUS_TOL = 1e-10


def verify_unambiguous_constraints(povm: Povm, states: Sequence[QubitState]) -> bool:
    """Check that conclusive elements never fire on the wrong state.

    Element i < len(states) is conclusive for states[i]; at most one more
    element may follow, the inconclusive one. Returns True iff
    <psi_j|E_i|psi_j> <= UNAMBIGUOUS_TOL for all conclusive i != j.
    """
    n = len(states)
    if not n <= len(povm.elements) <= n + 1:
        raise ValueError("need exactly one conclusive element per state")
    for j, state in enumerate(states):
        probs = born_probabilities(state, povm)[:n]
        if any(p > UNAMBIGUOUS_TOL for i, p in enumerate(probs) if i != j):
            return False
    return True


@lru_cache(maxsize=None)
def _idp_povm_cached(state0: QubitState, state1: QubitState) -> Povm:
    return idp_povm(state0, state1)


@lru_cache(maxsize=None)
def _scheme_probs(strategy: EveStrategy, state: QubitState) -> tuple[tuple[float, ...], ...]:
    """Outcome probabilities for each of the strategy's sub-measurements."""
    if strategy.scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        frames = naive_frame_povms(strategy.rotation)
        return tuple(tuple(born_probabilities(state, f)) for f in frames)
    povm = _idp_povm_cached(*strategy.states())
    return (tuple(born_probabilities(state, povm)),)


def usd_measure(strategy: EveStrategy, state: QubitState, rng: RngStream) -> UsdOutcome:
    """One discrimination attempt; conclusive outcomes never misidentify.

    Naive: pick the frame-z or frame-x measurement with probability 1/2;
    a frame "minus" outcome rules out one state and identifies the other
    (frame-z minus -> state 1, frame-x minus -> state 0). Optimal: sample
    the three-element POVM directly.
    """
    if strategy.scheme is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        frame = integers(rng, 2)
        probs = _scheme_probs(strategy, state)[frame]
        if sample_index(probs, rng) == 1:
            return UsdOutcome(1 if frame == 0 else 0)
        return INCONCLUSIVE
    probs = _scheme_probs(strategy, state)[0]
    idx = sample_index(probs, rng)
    return UsdOutcome(idx) if idx < 2 else INCONCLUSIVE


# -- Eve and the channel -------------------------------------------------------


@dataclass(frozen=True)
class EveLog:
    """What Eve did to one pulse."""

    action: str
    forwarded: str | None
    conclusive: int | None


_EIGENSTATES = {"z": (Z_PLUS, Z_MINUS), "x": (X_PLUS, X_MINUS)}


def channel_transmit(
    state: QubitState, channel: ChannelModel, rng: RngStream
) -> QubitState | None:
    """Pass the state through the channel; None means the pulse was lost."""
    if rng.uniform() < channel.loss_probability:
        return None
    return state


def eve_apply(
    strategy: EveStrategy, state: QubitState, rng: RngStream
) -> tuple[QubitState | None, EveLog]:
    """Apply Eve's strategy to one pulse; None means she sent nothing."""
    if strategy.kind is EveKind.NONE:
        return state, EveLog("passed", state_label(state), None)
    if strategy.kind is EveKind.INTERCEPT_RESEND:
        basis = "z" if integers(rng, 2) == 0 else "x"
        p_plus, _ = measurement_probs(state, basis)
        resent = _EIGENSTATES[basis][0 if rng.uniform() < p_plus else 1]
        return resent, EveLog("measured-resent", state_label(resent), None)
    outcome = usd_measure(strategy, state, rng)
    if outcome.conclusive:
        forwarded = strategy.states()[outcome.identified]
        return forwarded, EveLog("measured-resent", state_label(forwarded), outcome.identified)
    return None, EveLog("suppressed", None, None)


# -- Alice and Bob -------------------------------------------------------------

B92_ENCODING: dict[int, QubitState] = {0: Z_PLUS, 1: X_PLUS}
BB84_ENCODING: dict[tuple[str, int], QubitState] = {
    ("z", 0): Z_PLUS,
    ("z", 1): Z_MINUS,
    ("x", 0): X_PLUS,
    ("x", 1): X_MINUS,
}


def alice_prepare(
    kind: ProtocolKind,
    bit: int,
    basis: str | None = None,
    encoding: dict | None = None,
) -> QubitState:
    """Alice's carrier state for one bit (plus a basis choice under BB84)."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if kind is ProtocolKind.B92:
        table = encoding if encoding is not None else B92_ENCODING
        return table[bit]
    if basis not in BASIS_LABELS:
        raise ValueError(f"BB84 needs a basis in {BASIS_LABELS}, got {basis}")
    table = encoding if encoding is not None else BB84_ENCODING
    return table[(basis, bit)]


def bob_measure(state: QubitState, rng: RngStream) -> tuple[str, str]:
    """Measure S_z or S_x uniformly at random; same procedure for both protocols.

    Returns (basis, outcome) with outcome "plus" or "minus".
    """
    basis = BASIS_LABELS[integers(rng, 2)]
    p_plus, _ = measurement_probs(state, basis)
    outcome = "plus" if rng.uniform() < p_plus else "minus"
    return basis, outcome
