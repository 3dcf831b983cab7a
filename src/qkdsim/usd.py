"""Unambiguous discrimination of two nonorthogonal qubit states.

Two schemes are implemented. The naive scheme measures one of two
projective bases at random and turns "minus" outcomes into conclusive
identifications; it succeeds with probability 1/4 on the standard pair.
The optimal scheme is the three-outcome POVM saturating the two-state
bound, succeeding with probability 1 - |<psi0|psi1>|.

Feasibility for n states is decided by the Gram-matrix rank; the
no-signaling check exposes why more than two symmetric states cannot be
discriminated: equal-density mixtures give equal outcome statistics
under every POVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .quantum import (
    Povm,
    QubitState,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    born_probabilities,
    inner_product,
    mixture_density,
    orthogonal_state,
    projective_povm,
    projector,
    rotate_y,
)

GRAM_RANK_TOL = 1e-10
UNAMBIGUOUS_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class UsdSchemeKind(Enum):
    NAIVE_RANDOM_BASIS = "naive"
    OPTIMAL_IDP = "optimal"


@dataclass(frozen=True)
class UsdScheme:
    """A discrimination scheme for one linearly independent state pair.

    The naive scheme is tied to the {z+, x+} geometry; `rotation` carries
    that template into a rotated frame (used by the basis-mismatch
    attack). The optimal scheme accepts any independent pair.
    """

    kind: UsdSchemeKind
    state0: QubitState = Z_PLUS
    state1: QubitState = X_PLUS
    rotation: float = field(default=0.0)

    def __post_init__(self) -> None:
        overlap = abs(inner_product(self.state0, self.state1))
        if overlap > 1.0 - _DEGENERACY_TOL:
            raise ValueError("scheme states must be linearly independent")

    @classmethod
    def naive(cls, rotation: float = 0.0) -> "UsdScheme":
        return cls(
            UsdSchemeKind.NAIVE_RANDOM_BASIS,
            rotate_y(Z_PLUS, rotation),
            rotate_y(X_PLUS, rotation),
            rotation,
        )

    @classmethod
    def optimal(cls, state0: QubitState = Z_PLUS, state1: QubitState = X_PLUS) -> "UsdScheme":
        return cls(UsdSchemeKind.OPTIMAL_IDP, state0, state1)

    def states(self) -> tuple[QubitState, QubitState]:
        return (self.state0, self.state1)


def idp_povm(state0: QubitState, state1: QubitState) -> Povm:
    """Optimal three-outcome unambiguous-discrimination POVM.

    E_0 is the projector onto the complement of psi1 scaled by 1/(1+s)
    with s = |<psi0|psi1>|, the largest factor that keeps the inconclusive
    element positive semidefinite; symmetrically for E_1. Each conclusive
    outcome then fires with probability 1 - s on its own state and never
    on the other.
    """
    s = abs(inner_product(state0, state1))
    if s > 1.0 - _DEGENERACY_TOL:
        raise ValueError("states too close to parallel for unambiguous discrimination")
    scale = 1.0 / (1.0 + s)
    e0 = scale * projector(orthogonal_state(state1))
    e1 = scale * projector(orthogonal_state(state0))
    inconclusive = np.eye(2, dtype=complex) - e0 - e1
    inconclusive = (inconclusive + inconclusive.conj().T) / 2.0
    return Povm((e0, e1, inconclusive), ("conclusive0", "conclusive1", "inconclusive"))


def naive_frame_povms(rotation: float) -> tuple[Povm, Povm]:
    """The naive scheme's two projective measurements in a rotated frame."""
    z_frame = projective_povm(
        rotate_y(Z_PLUS, rotation), rotate_y(Z_MINUS, rotation), ("plus", "minus")
    )
    x_frame = projective_povm(
        rotate_y(X_PLUS, rotation), rotate_y(X_MINUS, rotation), ("plus", "minus")
    )
    return (z_frame, x_frame)


def usd_efficiency(scheme: UsdScheme) -> float:
    """Average conclusive probability over the two inputs at equal priors."""
    if scheme.kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        return 0.25
    return 1.0 - abs(inner_product(scheme.state0, scheme.state1))


def verify_unambiguous_constraints(povm: Povm, states: Sequence[QubitState]) -> bool:
    """Check that conclusive elements never fire on the wrong state.

    Elements labeled "conclusive{i}" correspond to states[i]; returns
    True iff <psi_j|E_i|psi_j> <= 1e-10 for all conclusive i != j.
    """
    conclusive: dict[int, int] = {}
    for index, label in enumerate(povm.labels):
        if label.startswith("conclusive"):
            conclusive[int(label[len("conclusive"):])] = index
    if sorted(conclusive) != list(range(len(states))):
        raise ValueError("need exactly one conclusive element per state")
    for j, state in enumerate(states):
        probs = born_probabilities(state, povm)
        if any(probs[index] > UNAMBIGUOUS_TOL for i, index in conclusive.items() if i != j):
            return False
    return True


def gram_matrix(states: Sequence[QubitState]) -> np.ndarray:
    """Matrix of pairwise inner products G_jk = <psi_j|psi_k>."""
    n = len(states)
    gram = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            gram[j, k] = inner_product(states[j], states[k])
    return gram


def gram_rank(states: Sequence[QubitState]) -> int:
    """Number of Gram eigenvalues above GRAM_RANK_TOL."""
    eigvals = np.linalg.eigvalsh(gram_matrix(states))
    return int(np.sum(eigvals > GRAM_RANK_TOL))


def usd_feasible(states: Sequence[QubitState]) -> bool:
    """True iff the states are linearly independent (Gram matrix full rank).

    More than two qubit states are always infeasible.
    """
    if not states:
        raise ValueError("need at least one state")
    return gram_rank(states) == len(states)


def no_signaling_distributions(
    povm: Povm,
    decomp_a: tuple[Sequence[QubitState], Sequence[float]],
    decomp_b: tuple[Sequence[QubitState], Sequence[float]],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Outcome distributions of one POVM on two mixtures, and their gap.

    When the two decompositions share a density matrix the gap is bounded
    by arithmetic noise, which is exactly why measurement statistics can
    never reveal which decomposition was prepared.
    """
    rho_a = mixture_density(*decomp_a).matrix
    rho_b = mixture_density(*decomp_b).matrix
    probs_a = np.array([float(np.real(np.trace(e @ rho_a))) for e in povm.elements])
    probs_b = np.array([float(np.real(np.trace(e @ rho_b))) for e in povm.elements])
    return probs_a, probs_b, float(np.max(np.abs(probs_a - probs_b)))
