"""Exact single-qubit state algebra: states, POVMs, Born probabilities, densities.

Everything is fixed at dimension 2. Amplitudes are plain Python complex
numbers (finite, validated); operators are 2x2 numpy arrays. Algebraic
identities are enforced to 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngStream

ALGEBRA_TOL = 1e-12

_IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class QubitState:
    """Normalized pair of complex amplitudes in the S_z eigenbasis.

    `amp0` multiplies |z+>, `amp1` multiplies |z->.
    """

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        for amp in (self.amp0, self.amp1):
            if not cmath.isfinite(amp):
                raise ValueError("amplitudes must be finite")
        norm_sq = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm_sq - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"state not normalized: |amp|^2 = {norm_sq!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)


Z_PLUS = QubitState(1.0 + 0.0j, 0.0j)
Z_MINUS = QubitState(0.0j, 1.0 + 0.0j)
_SQRT_HALF = 1.0 / math.sqrt(2.0)
X_PLUS = QubitState(complex(_SQRT_HALF), complex(_SQRT_HALF))
X_MINUS = QubitState(complex(_SQRT_HALF), complex(-_SQRT_HALF))


def state_from_bloch(theta: float, phi: float) -> QubitState:
    """State at Bloch angles (theta, phi): (cos(t/2), e^{i phi} sin(t/2)).

    theta must lie in [0, pi], phi in [0, 2 pi).
    """
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta out of range [0, pi]: {theta}")
    if not (0.0 <= phi < 2.0 * math.pi):
        raise ValueError(f"phi out of range [0, 2 pi): {phi}")
    return QubitState(
        complex(math.cos(theta / 2.0)),
        cmath.exp(1j * phi) * math.sin(theta / 2.0),
    )


def rotate_y(state: QubitState, angle: float) -> QubitState:
    """Rotate a state by `angle` about the Bloch y axis.

    Maps Bloch angle theta to theta + angle in the x-z plane; at angle 0
    the amplitudes are returned bit-for-bit unchanged.
    """
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return QubitState(c * state.amp0 - s * state.amp1, s * state.amp0 + c * state.amp1)


def inner_product(a: QubitState, b: QubitState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    return a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1


def orthogonal_state(state: QubitState) -> QubitState:
    """The state orthogonal to `state` (unique up to phase)."""
    return QubitState(-state.amp1.conjugate(), state.amp0.conjugate())


def projector(state: QubitState) -> np.ndarray:
    """Rank-1 projector |psi><psi| as a 2x2 array."""
    v = state.vector
    return np.outer(v, v.conj())


def state_label(state: QubitState, tol: float = 1e-9) -> str:
    """Name a state by the nearest of z+/z-/x+/x- (else "other").

    Matching is up to global phase, via |<ref|state>|^2 within `tol` of 1.
    """
    for label, ref in (("z+", Z_PLUS), ("z-", Z_MINUS), ("x+", X_PLUS), ("x-", X_MINUS)):
        if abs(abs(inner_product(ref, state)) ** 2 - 1.0) <= tol:
            return label
    return "other"


def _check_operators(mats, what: str, complete: bool = False) -> np.ndarray:
    """The 2x2 operators `mats` as one read-only array, checked finite,
    Hermitian and positive semidefinite to ALGEBRA_TOL; `what` names one
    operator in the error messages. `mats` is a sequence of operators, or
    an array of shape (..., 2, 2) with any leading batch dimensions. With
    `complete`, the outcome axis -3 holds each POVM's elements, and every
    POVM must sum to the identity."""
    if not isinstance(mats, np.ndarray):
        for mat in mats:
            if mat.shape != (2, 2):
                raise ValueError(f"{what} has shape {mat.shape}, expected (2, 2)")
        mats = np.stack(mats)
    if not np.all(np.isfinite(mats.view(float))):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(mats - mats.conj().swapaxes(-1, -2))) > ALGEBRA_TOL:
        raise ValueError(f"{what} is not Hermitian")
    if np.linalg.eigvalsh(mats).min() < -ALGEBRA_TOL:
        raise ValueError(f"{what} is not positive semidefinite")
    if complete and np.max(np.abs(mats.sum(axis=-3) - _IDENTITY)) > ALGEBRA_TOL:
        raise ValueError("POVM elements do not sum to the identity")
    mats.setflags(write=False)
    return mats


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to identity, with one label per element.

    Validated at construction: Hermiticity and completeness to 1e-12,
    eigenvalues >= -1e-12. Element order is part of the contract; outcome
    sampling walks the inverse CDF in declared order.
    """

    elements: tuple
    labels: tuple

    def __init__(self, elements: Sequence[np.ndarray], labels: Sequence[str]) -> None:
        mats = [np.array(e, dtype=complex) for e in elements]
        names = tuple(str(label) for label in labels)
        if len(mats) != len(names):
            raise ValueError("elements and labels must have equal length")
        if not mats:
            raise ValueError("POVM needs at least one element")
        stack = _check_operators(mats, "POVM element", complete=True)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", names)


def projective_povm(plus: QubitState, minus: QubitState, labels: tuple[str, str]) -> Povm:
    """Two-outcome projective measurement onto an orthonormal pair."""
    return Povm((projector(plus), projector(minus)), labels)


SZ_POVM = projective_povm(Z_PLUS, Z_MINUS, ("z+", "z-"))
SX_POVM = projective_povm(X_PLUS, X_MINUS, ("x+", "x-"))


def born_probabilities(state: QubitState, povm: Povm) -> np.ndarray:
    """Outcome probabilities <psi|E_i|psi>, clamped to [0, 1]."""
    v = state.vector
    probs = np.array([float(np.real(v.conj() @ (e @ v))) for e in povm.elements])
    return np.clip(probs, 0.0, 1.0)


def measurement_probs(state: QubitState, basis: str) -> tuple[float, float]:
    """(plus, minus) probabilities for the z or x projective basis."""
    povm = SZ_POVM if basis == "z" else SX_POVM
    p = born_probabilities(state, povm)
    return (float(p[0]), float(p[1]))


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, positive semidefinite, unit-trace operator."""

    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray) -> None:
        (mat,) = _check_operators([np.array(matrix, dtype=complex)], "density matrix")
        if abs(np.trace(mat) - 1.0) > ALGEBRA_TOL:
            raise ValueError("density matrix trace is not 1")
        object.__setattr__(self, "matrix", mat)


def mixture_density(states: Sequence[QubitState], probs: Sequence[float]) -> DensityMatrix:
    """rho = sum_k p_k |psi_k><psi_k| for a classical mixture."""
    if len(states) != len(probs):
        raise ValueError("states and probs must have equal length")
    if any(p < 0.0 for p in probs):
        raise ValueError("mixture probabilities must be nonnegative")
    if abs(sum(probs) - 1.0) > ALGEBRA_TOL:
        raise ValueError("mixture probabilities must sum to 1")
    rho = np.zeros((2, 2), dtype=complex)
    for state, p in zip(states, probs):
        rho += p * projector(state)
    return DensityMatrix(rho)


def density_equal(a: DensityMatrix, b: DensityMatrix, tol: float) -> bool:
    """True iff the max entrywise modulus difference is within `tol`."""
    return bool(np.max(np.abs(a.matrix - b.matrix)) <= tol)


def random_povm(rng: RngStream, size: int = 3) -> Povm:
    """Random POVM from a convex mixture of random rank-1 projectors.

    Weighted projectors A_i are symmetrized through S^{-1/2} A_i S^{-1/2}
    with S = sum A_i, which restores completeness exactly.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    for _ in range(100):
        mats = []
        for _ in range(size):
            theta = math.acos(1.0 - 2.0 * rng.uniform())
            phi = 2.0 * math.pi * rng.uniform()
            weight = 0.2 + 0.8 * rng.uniform()
            mats.append(weight * projector(state_from_bloch(theta, phi)))
        total = sum(mats)
        eigvals, eigvecs = np.linalg.eigh(total)
        if eigvals.min() < 1e-6:
            continue
        inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
        elements = []
        for mat in mats:
            e = inv_sqrt @ mat @ inv_sqrt
            elements.append((e + e.conj().T) / 2.0)
        return Povm(elements, tuple(f"e{i}" for i in range(size)))
    raise RuntimeError("failed to draw a well-conditioned random POVM")
