"""The lossy channel and Eve's strategies.

Eve sits at Alice's output, before the lossy channel, so any pulse she
suppresses reaches Bob as an ordinary missing detection. The suppress
strategy runs an unambiguous measurement and forwards an exact copy of
the identified protocol state on conclusive outcomes, nothing otherwise;
it produces zero sifted-key errors by construction and shows up only in
the null rate. A strategy is its kind, the scheme kind of the two
discrimination attacks and the rotation of Eve's frame, in which she
discriminates |z+> and |x+>; the basis-mismatch variant rotates it by
delta and forwards her conjectured states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quantum import B92_STATES, QubitState, rotate_y
from .usd import UsdSchemeKind

HALF_PI = 1.5707963267948966


@dataclass(frozen=True)
class ChannelModel:
    """Per-pulse absorption plus detector efficiency; no noise on survivors."""

    absorption: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        for name in ("absorption", "efficiency"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def loss_probability(self) -> float:
        return self.absorption + (1.0 - self.absorption) * (1.0 - self.efficiency)


class EveKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    USD_SUPPRESS = "usd_suppress"
    BASIS_MISMATCH = "basis_mismatch"


_DISCRIMINATING = (EveKind.USD_SUPPRESS, EveKind.BASIS_MISMATCH)


@dataclass(frozen=True)
class EveStrategy:
    kind: EveKind
    scheme: UsdSchemeKind | None = None
    rotation: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rotation < HALF_PI):
            raise ValueError(f"delta must be in [0, pi/2), got {self.rotation}")
        if self.rotation and self.kind is not EveKind.BASIS_MISMATCH:
            raise ValueError(f"{self.kind.value} does not rotate Eve's frame")
        if (self.scheme is None) == (self.kind in _DISCRIMINATING):
            need = "needs a" if self.scheme is None else "takes no"
            raise ValueError(f"{self.kind.value} {need} discrimination scheme")

    @classmethod
    def of(
        cls,
        kind: EveKind,
        scheme_kind: UsdSchemeKind = UsdSchemeKind.NAIVE_RANDOM_BASIS,
        delta: float = 0.0,
    ) -> "EveStrategy":
        """The strategy of this kind; only basis_mismatch rotates, by delta."""
        if kind not in _DISCRIMINATING:
            return cls(kind)
        return cls(kind, scheme_kind, delta if kind is EveKind.BASIS_MISMATCH else 0.0)

    def states(self) -> tuple[QubitState, QubitState]:
        """The pair Eve discriminates: `B92_STATES` rotated into her frame."""
        return tuple(rotate_y(state, self.rotation) for state in B92_STATES)


def forwarded_state_symmetry(
    counts: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per session, counts of |z+> vs |x+> among the pulses Eve actually
    forwarded.

    `counts[i, s]` is how many times session i forwarded a state and
    `labels[i, s]` names that state (labels broadcast against counts, so
    one row of labels serves every session); the counts labelled z+ and
    x+ are summed per session.
    """
    return tuple(np.where(labels == label, counts, 0).sum(axis=-1) for label in ("z+", "x+"))
