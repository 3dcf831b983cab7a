"""The lossy channel and Eve's strategies.

Eve sits at Alice's output, before the lossy channel, so any pulse she
suppresses reaches Bob as an ordinary missing detection. The suppress
strategy runs an unambiguous measurement and forwards an exact copy of
the identified protocol state on conclusive outcomes, nothing otherwise;
it produces zero sifted-key errors by construction and shows up only in
the null rate. The basis-mismatch variant is the same strategy run in a
frame rotated by delta, forwarding Eve's conjectured states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quantum import X_PLUS, Z_PLUS, rotate_y
from .usd import UsdScheme, UsdSchemeKind

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


@dataclass(frozen=True)
class EveStrategy:
    kind: EveKind
    scheme: UsdScheme | None = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta < HALF_PI):
            raise ValueError(f"delta must be in [0, pi/2), got {self.delta}")
        if self.kind in (EveKind.USD_SUPPRESS, EveKind.BASIS_MISMATCH) and self.scheme is None:
            raise ValueError(f"{self.kind.value} needs a discrimination scheme")

    @classmethod
    def of(
        cls,
        kind: EveKind,
        scheme_kind: UsdSchemeKind = UsdSchemeKind.NAIVE_RANDOM_BASIS,
        delta: float = 0.0,
    ) -> "EveStrategy":
        """The strategy of this kind; only the mismatch attack rotates by delta.

        The discrimination attacks run `scheme_kind` on the standard pair
        rotated by their delta, so usd_suppress is basis_mismatch at 0.
        """
        if kind in (EveKind.NONE, EveKind.INTERCEPT_RESEND):
            return cls(kind)
        rotation = delta if kind is EveKind.BASIS_MISMATCH else 0.0
        if scheme_kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
            scheme = UsdScheme.naive(rotation)
        else:
            scheme = UsdScheme.optimal(rotate_y(Z_PLUS, rotation), rotate_y(X_PLUS, rotation))
        return cls(kind, scheme, rotation)


def forwarded_state_symmetry(
    forwarded_ids: np.ndarray, labels: tuple[str, ...]
) -> tuple[int, int]:
    """Counts of |z+> vs |x+> among the pulses Eve actually forwarded.

    `labels` names the states of the session's state table. Counts each
    state id labelled z+ or x+ directly; suppressed pulses (id -1) match
    no label.
    """

    def count(label: str) -> int:
        return sum(
            int(np.count_nonzero(forwarded_ids == i))
            for i, name in enumerate(labels)
            if name == label
        )

    return count("z+"), count("x+")
