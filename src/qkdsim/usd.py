"""Unambiguous discrimination of two nonorthogonal qubit states.

Two schemes are built here as POVM elements; Eve's strategies, which
pick one and its frame, are in `adversary`. The naive scheme measures
one of two projective frames at random and turns "minus" outcomes into
conclusive identifications; it succeeds with probability 1/4 on the
standard pair. The optimal scheme is the three-outcome POVM saturating
the two-state bound, succeeding with probability 1 - |<psi0|psi1>|.

Feasibility for n states is decided by the Gram-matrix rank; the
no-signaling check exposes why more than two symmetric states cannot be
discriminated: equal-density mixtures give equal outcome statistics
under every POVM.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .quantum import (
    DensityMatrix,
    Povm,
    QubitState,
    REFERENCE_STATES,
    born,
    inner_product,
    inner_products,
    outer,
)

# not called here; kept because bench/tracing.py wraps these names on this module
from .quantum import born_probabilities, orthogonal_state, projective_povm  # noqa: F401
from .quantum import projector, rotate_y  # noqa: F401

GRAM_RANK_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class UsdSchemeKind(Enum):
    NAIVE_RANDOM_BASIS = "naive"
    OPTIMAL_IDP = "optimal"


def idp_elements(pairs: Sequence[tuple[QubitState, QubitState]]) -> np.ndarray:
    """Elements of the optimal three-outcome unambiguous-discrimination
    POVM for each state pair, shape (pairs, 1 frame, 3 outcomes, 2, 2):
    conclusive0, conclusive1, inconclusive.

    E_0 is the projector onto the complement of psi1 scaled by 1/(1+s)
    with s = |<psi0|psi1>|, the largest factor that keeps the inconclusive
    element positive semidefinite; symmetrically for E_1. Each conclusive
    outcome then fires with probability 1 - s on its own state and never
    on the other. The overlap is `inner_products`', the complements are
    `orthogonal_state`'s arithmetic done elementwise and their projectors
    `outer`'s, so every pair's elements equal the scalar construction from
    `inner_product`, `orthogonal_state` and `projector` bit for bit.
    """
    amps = np.array([(a.amp0, a.amp1, b.amp0, b.amp1) for a, b in pairs], dtype=complex)
    a0, a1, b0, b1 = amps.T
    overlap = inner_products(amps[:, :2], amps[:, 2:])
    s = np.hypot(overlap.real, overlap.imag)
    if np.any(s > 1.0 - _DEGENERACY_TOL):
        raise ValueError("states too close to parallel for unambiguous discrimination")
    scale = (1.0 / (1.0 + s))[:, None, None]
    e0 = scale * outer(np.stack([-b1.conj(), b0.conj()], axis=-1))
    e1 = scale * outer(np.stack([-a1.conj(), a0.conj()], axis=-1))
    inconclusive = np.eye(2, dtype=complex) - e0 - e1
    inconclusive = (inconclusive + inconclusive.conj().swapaxes(-1, -2)) / 2.0
    return np.stack([e0, e1, inconclusive], axis=1)[:, None]


def idp_povm(state0: QubitState, state1: QubitState) -> Povm:
    """The optimal discrimination POVM of one pair (see `idp_elements`)."""
    (elements,) = idp_elements([(state0, state1)])[:, 0]
    return Povm(elements)


# the naive frames before rotation: (z, x) frames of (plus, minus) amplitude pairs
_FRAME_STATES = np.array([s.vector for s in REFERENCE_STATES.values()]).reshape(2, 2, 2)


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
    return outer(np.stack([c * amp0 - s * amp1, s * amp0 + c * amp1], axis=-1))


def naive_frame_povms(rotation: float) -> tuple[Povm, Povm]:
    """The naive scheme's two projective measurements in a rotated frame."""
    z_frame, x_frame = naive_frame_elements([rotation])[0]
    return Povm(z_frame), Povm(x_frame)


def usd_efficiency(kind: UsdSchemeKind, pair: Callable[[], Sequence[QubitState]]) -> float:
    """Average conclusive probability over the states `pair()` returns,
    at equal priors; the naive scheme's is 1/4 without calling `pair`."""
    if kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        return 0.25
    state0, state1 = pair()
    return 1.0 - abs(inner_product(state0, state1))


def gram_matrix(states: Sequence[QubitState]) -> np.ndarray:
    """Matrix of pairwise inner products G_jk = <psi_j|psi_k>, by one
    `inner_products` call."""
    kets = np.array([s.vector for s in states])
    return inner_products(kets[:, None], kets)


def gram_rank(eigenvalues: np.ndarray) -> int:
    """Number of the Gram matrix's `eigenvalues` above GRAM_RANK_TOL."""
    return int(np.sum(eigenvalues > GRAM_RANK_TOL))


def usd_feasible(states: Sequence[QubitState]) -> bool:
    """True iff the states are linearly independent (Gram matrix full rank).

    More than two qubit states are always infeasible.
    """
    if not states:
        raise ValueError("need at least one state")
    return gram_rank(np.linalg.eigvalsh(gram_matrix(states))) == len(states)


def no_signaling_distributions(
    povm: Povm, density_a: DensityMatrix, density_b: DensityMatrix
) -> tuple[np.ndarray, np.ndarray, float]:
    """Outcome distributions of one POVM on two mixtures' densities, and
    their gap.

    When the two mixtures share a density matrix the gap is bounded by
    arithmetic noise, which is exactly why measurement statistics can
    never reveal which decomposition was prepared. Each probability is
    Tr(E rho), formed by `born`.
    """
    probs_a, probs_b = (born(povm.elements, d.matrix) for d in (density_a, density_b))
    return probs_a, probs_b, float(np.max(np.abs(probs_a - probs_b)))
