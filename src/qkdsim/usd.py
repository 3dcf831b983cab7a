"""Unambiguous discrimination of two nonorthogonal qubit states.

Two schemes are built here as POVM elements, for many ket pairs at once;
Eve's strategies, which pick one and its frame, are in `adversary`, and
`frame_kets` rotates her frames. The naive scheme measures one of two
projective frames at random and turns "minus" outcomes into conclusive
identifications; it succeeds with probability 1/4 on the standard pair.
The optimal scheme is the three-outcome POVM saturating the two-state
bound, succeeding with probability 1 - |<psi0|psi1>|. A pair is an array
of two kets, each a row of amplitudes, and `usd_efficiency` gives the
rate of every pair of a stack of them.

Feasibility for n states is decided by the Gram-matrix rank, counted on
`gram_eigenvalues`' closed-form spectrum (Chefles 1998: the states must
be linearly independent, so more than two qubit states never are); the
no-signaling check exposes why more than two symmetric states cannot be
discriminated: equal-density mixtures give equal outcome statistics
under every POVM.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .quantum import (
    DensityMatrix,
    Povm,
    QubitState,
    REFERENCE_KETS,
    born,
    eigenvalues,
    inner_products,
    outer,
    rotate_kets,
)

# not called here; kept because bench/tracing.py wraps these names on this module
from .quantum import born_probabilities, orthogonal_state, projective_povm  # noqa: F401
from .quantum import inner_product, projector, rotate_y  # noqa: F401

GRAM_RANK_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class UsdSchemeKind(Enum):
    NAIVE_RANDOM_BASIS = "naive"
    OPTIMAL_IDP = "optimal"


def idp_elements(pairs: np.ndarray) -> np.ndarray:
    """Elements of the optimal three-outcome unambiguous-discrimination
    POVM for each ket pair of `pairs`, shape (pairs, 2, 2), as shape
    (pairs, 1 frame, 3 outcomes, 2, 2): conclusive0, conclusive1,
    inconclusive.

    E_0 is the projector onto the complement of psi1 scaled by 1/(1+s)
    with s = |<psi0|psi1>|, the largest factor that keeps the inconclusive
    element positive semidefinite; symmetrically for E_1. Each conclusive
    outcome then fires with probability 1 - s on its own state and never
    on the other. The overlap is `inner_products`', the complements are
    `orthogonal_state`'s arithmetic done elementwise and their projectors
    `outer`'s, so every pair's elements equal the scalar construction from
    `inner_product`, `orthogonal_state` and `projector` bit for bit.
    """
    overlap = inner_products(pairs[:, 0], pairs[:, 1])
    s = np.hypot(overlap.real, overlap.imag)
    if np.any(s > 1.0 - _DEGENERACY_TOL):
        raise ValueError("states too close to parallel for unambiguous discrimination")
    scale = (1.0 / (1.0 + s))[:, None, None]
    a0, a1, b0, b1 = pairs[:, 0, 0], pairs[:, 0, 1], pairs[:, 1, 0], pairs[:, 1, 1]
    e0 = scale * outer(np.stack([-b1.conj(), b0.conj()], axis=-1))
    e1 = scale * outer(np.stack([-a1.conj(), a0.conj()], axis=-1))
    inconclusive = np.eye(2, dtype=complex) - e0 - e1
    inconclusive = (inconclusive + inconclusive.conj().swapaxes(-1, -2)) / 2.0
    return np.stack([e0, e1, inconclusive], axis=1)[:, None]


def idp_povm(state0: QubitState, state1: QubitState) -> Povm:
    """The optimal discrimination POVM of one pair (see `idp_elements`)."""
    (elements,) = idp_elements(np.array([[state0.vector, state1.vector]]))[:, 0]
    return Povm(elements)


def frame_kets(rotations: Sequence[float]) -> np.ndarray:
    """Eve's two frames rotated by each of `rotations`, by one `rotate_kets`
    call on `REFERENCE_KETS`: shape (rotations, 2 frames, 2 outcomes, 2),
    the z frame then the x frame, each plus then minus. Each frame's plus
    ket is a state of the pair she discriminates, `B92_STATES` rotated;
    the naive scheme measures the frames, so its elements are their kets'
    projectors (`outer`)."""
    return rotate_kets(REFERENCE_KETS.reshape(2, 2, 2), rotations)


def naive_frame_povms(rotation: float) -> tuple[Povm, Povm]:
    """The naive scheme's two projective measurements in a rotated frame."""
    z_frame, x_frame = outer(frame_kets([rotation])[0])
    return Povm(z_frame), Povm(x_frame)


def usd_efficiency(kind: UsdSchemeKind, pairs: np.ndarray) -> np.ndarray:
    """Average conclusive probability, at equal priors, of each ket pair of
    `pairs`, shape (pairs, 2, 2): 1/4 for the naive scheme and
    1 - |<psi0|psi1>| for the optimal one, the modulus of `inner_products`'
    overlap taken by `hypot`, as `abs` of a Python complex takes it."""
    if kind is UsdSchemeKind.NAIVE_RANDOM_BASIS:
        return np.full(len(pairs), 0.25)
    overlap = inner_products(pairs[:, 0], pairs[:, 1])
    return 1.0 - np.hypot(overlap.real, overlap.imag)


def gram_matrix(states: Sequence[QubitState]) -> np.ndarray:
    """Matrix of pairwise inner products G_jk = <psi_j|psi_k>, by one
    `inner_products` call."""
    kets = np.array([s.vector for s in states])
    return inner_products(kets[:, None], kets)


def gram_eigenvalues(states: Sequence[QubitState]) -> np.ndarray:
    """Eigenvalues of the Gram matrix of `states`, in ascending order, as
    `eigvalsh` orders them, with no LAPACK kernel behind them.

    With the n kets the columns of a 2 x n matrix A, the Gram matrix is
    A^dagger A. Its nonzero eigenvalues are those of the 2 x 2 frame
    operator A A^dagger = sum_k |psi_k><psi_k| (an `outer` sum, its two
    eigenvalues by `eigenvalues`), and its other n - 2 are exactly 0;
    one state's Gram matrix is [1], the frame operator's larger
    eigenvalue alone. The sort places a rank-1 set's smaller frame
    eigenvalue, which may round below 0, before the zeros.
    """
    kets = np.array([s.vector for s in states])
    frame = eigenvalues(outer(kets).sum(axis=0))[-len(states):]
    return np.sort(np.concatenate([np.zeros(max(len(states) - 2, 0)), frame]))


def gram_rank(spectrum: np.ndarray) -> int:
    """Number of the Gram matrix's eigenvalues `spectrum` above GRAM_RANK_TOL."""
    return int(np.sum(spectrum > GRAM_RANK_TOL))


def usd_feasible(states: Sequence[QubitState]) -> bool:
    """True iff the states are linearly independent (Gram matrix full rank).

    More than two qubit states are always infeasible.
    """
    if not states:
        raise ValueError("need at least one state")
    return gram_rank(gram_eigenvalues(states)) == len(states)


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
