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

import math
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
    rotate_y,
)

# not called here; kept because bench/tracing.py wraps these names on this module
from .quantum import orthogonal_state, projective_povm, projector  # noqa: F401

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


def idp_elements(pairs: Sequence[tuple[QubitState, QubitState]]) -> np.ndarray:
    """Elements of the optimal three-outcome unambiguous-discrimination
    POVM for each state pair, shape (pairs, 1 frame, 3 outcomes, 2, 2):
    conclusive0, conclusive1, inconclusive.

    E_0 is the projector onto the complement of psi1 scaled by 1/(1+s)
    with s = |<psi0|psi1>|, the largest factor that keeps the inconclusive
    element positive semidefinite; symmetrically for E_1. Each conclusive
    outcome then fires with probability 1 - s on its own state and never
    on the other. Each step is `inner_product`'s, `orthogonal_state`'s or
    `projector`'s arithmetic done elementwise and rounded as they round,
    so every pair's elements equal that scalar construction's bit for bit.
    """
    amps = np.array([(a.amp0, a.amp1, b.amp0, b.amp1) for a, b in pairs], dtype=complex)
    a0, a1, b0, b1 = amps.T
    overlap = _product(a0.conj(), b0) + _product(a1.conj(), b1)
    s = np.hypot(overlap.real, overlap.imag)
    if np.any(s > 1.0 - _DEGENERACY_TOL):
        raise ValueError("states too close to parallel for unambiguous discrimination")
    scale = (1.0 / (1.0 + s))[:, None, None]
    e0 = scale * _outer(np.stack([-b1.conj(), b0.conj()], axis=-1))
    e1 = scale * _outer(np.stack([-a1.conj(), a0.conj()], axis=-1))
    inconclusive = np.eye(2, dtype=complex) - e0 - e1
    inconclusive = (inconclusive + inconclusive.conj().swapaxes(-1, -2)) / 2.0
    return np.stack([e0, e1, inconclusive], axis=1)[:, None]


def idp_povm(state0: QubitState, state1: QubitState) -> Povm:
    """The optimal discrimination POVM of one pair (see `idp_elements`)."""
    (elements,) = idp_elements([(state0, state1)])[:, 0]
    return Povm(elements, ("conclusive0", "conclusive1", "inconclusive"))


# the naive frames before rotation: (z, x) frames of (plus, minus) amplitude pairs
_FRAME_STATES = np.array([[Z_PLUS.vector, Z_MINUS.vector], [X_PLUS.vector, X_MINUS.vector]])


def naive_frame_elements(rotations: Sequence[float]) -> np.ndarray:
    """The naive scheme's two projective frames rotated by each of
    `rotations`, shape (rotations, 2 frames, 2 outcomes, 2, 2): the z frame
    then the x frame, each plus then minus.

    Each element is the projector onto a frame state rotated as `rotate_y`
    rotates it, with the half-angle cosine and sine taken by `math`; all
    the factors are real, so numpy's complex products round as Python's
    do, and the elements equal `projective_povm(rotate_y(...), ...)`'s bit
    for bit.
    """
    half = [r / 2.0 for r in rotations]
    c = np.array([math.cos(h) for h in half], dtype=complex).reshape(-1, 1, 1)
    s = np.array([math.sin(h) for h in half], dtype=complex).reshape(-1, 1, 1)
    amp0, amp1 = _FRAME_STATES[..., 0], _FRAME_STATES[..., 1]
    return _outer(np.stack([c * amp0 - s * amp1, s * amp0 + c * amp1], axis=-1))


def naive_frame_povms(rotation: float) -> tuple[Povm, Povm]:
    """The naive scheme's two projective measurements in a rotated frame."""
    z_frame, x_frame = naive_frame_elements([rotation])[0]
    return (Povm(z_frame, ("plus", "minus")), Povm(x_frame, ("plus", "minus")))


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise, each real product rounded before the sum as in
    Python's complex product; numpy's vectorised complex multiply may
    fuse them and differ in the last bit."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _outer(v: np.ndarray) -> np.ndarray:
    """|v><v| of every vector along the last axis, by numpy's multiply as
    `projector`'s `np.outer` forms it."""
    return v[..., :, None] * v.conj()[..., None, :]


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
