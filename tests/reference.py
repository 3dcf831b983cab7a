"""Scalar per-pulse reference pipeline: the oracle the array engine is
checked against.

Each function handles one pulse with an `RngStream` and consumes draws in
the order `qkdsim.session` documents, so composing them pulse by pulse
must reproduce an engine transcript draw for draw. Nothing in the
package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from qkdsim.adversary import ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import BASIS_LABELS, ProtocolKind
from qkdsim.quantum import (
    Povm,
    QubitState,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    born_probabilities,
    measurement_probs,
    state_label,
)
from qkdsim.rng import RngStream, derive_seed
from qkdsim.usd import UsdScheme, UsdSchemeKind, idp_povm, naive_frame_povms

# -- random streams and Born sampling ---------------------------------------


def substream(seed: int, *keys: int) -> RngStream:
    """Stream seeded by `derive_seed(seed, *keys)`."""
    return RngStream(derive_seed(seed, *keys))


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


def sample_outcome(state: QubitState, povm: Povm, rng: RngStream) -> str:
    """Sample one outcome label by the Born rule; mutates only `rng`."""
    return povm.labels[sample_index(born_probabilities(state, povm), rng)]


def sample_without_replacement(m: int, k: int, rng: RngStream) -> list[int]:
    """First k entries of a partial Fisher-Yates shuffle of range(m), one draw per step."""
    positions = list(range(m))
    for j in range(k):
        t = j + rng.integers(m - j)
        positions[j], positions[t] = positions[t], positions[j]
    return positions[:k]


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


@lru_cache(maxsize=None)
def _idp_povm_cached(state0: QubitState, state1: QubitState) -> Povm:
    return idp_povm(state0, state1)


@lru_cache(maxsize=None)
def _scheme_probs(scheme: UsdScheme, state: QubitState) -> tuple[tuple[float, ...], ...]:
    """Outcome probabilities for each of the scheme's sub-measurements."""
    if scheme.kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        frames = naive_frame_povms(scheme.rotation)
        return tuple(tuple(born_probabilities(state, f)) for f in frames)
    povm = _idp_povm_cached(scheme.state0, scheme.state1)
    return (tuple(born_probabilities(state, povm)),)


def usd_measure(scheme: UsdScheme, state: QubitState, rng: RngStream) -> UsdOutcome:
    """One discrimination attempt; conclusive outcomes never misidentify.

    Naive: pick the frame-z or frame-x measurement with probability 1/2;
    a frame "minus" outcome rules out one state and identifies the other
    (frame-z minus -> state 1, frame-x minus -> state 0). Optimal: sample
    the three-element POVM directly.
    """
    if scheme.kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        frame = rng.integers(2)
        probs = _scheme_probs(scheme, state)[frame]
        if sample_index(probs, rng) == 1:
            return UsdOutcome(1 if frame == 0 else 0)
        return INCONCLUSIVE
    probs = _scheme_probs(scheme, state)[0]
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
        basis = "z" if rng.integers(2) == 0 else "x"
        p_plus, _ = measurement_probs(state, basis)
        resent = _EIGENSTATES[basis][0 if rng.uniform() < p_plus else 1]
        return resent, EveLog("measured-resent", state_label(resent), None)
    outcome = usd_measure(strategy.scheme, state, rng)
    if outcome.conclusive:
        forwarded = strategy.scheme.states()[outcome.identified]
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
    basis = BASIS_LABELS[rng.integers(2)]
    p_plus, _ = measurement_probs(state, basis)
    outcome = "plus" if rng.uniform() < p_plus else "minus"
    return basis, outcome
