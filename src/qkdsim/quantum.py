"""Exact single-qubit state algebra: states, POVMs, Born probabilities, densities.

Everything is fixed at dimension 2. Amplitudes are plain Python complex
numbers (finite, validated); operators are 2x2 numpy arrays. Algebraic
identities are enforced to 1e-12. `REFERENCE_STATES` and `B92_STATES`
are the one list of the S_z/S_x eigenstates and of the B92 pair, and
`REFERENCE_KETS` holds the former's kets.

Each qubit quantity is formed by one array rule, defined here once:
`rotate_kets` (a y rotation), `outer` (|v><v|), `inner_products`
(<a|b>), `born` (Tr(E rho)) and `eigenvalues` (a 2x2 Hermitian
operator's two, in closed form). Each rounds every real product before
its sum, as Python's complex product does, and sums in one fixed order,
with no LAPACK or BLAS kernel or fused multiply behind it, so its bits
do not depend on the CPU. The engine's rotated frames and stage tables,
`rotate_y`, `born_probabilities`, the USD elements, the positivity check
of `_check_operators`, the Gram spectrum and the no-signaling demo's
operators all go through them; `random_povm` builds its elements in
Bloch form from real arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngStream

ALGEBRA_TOL = 1e-12
_LABEL_TOL = 1e-9

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

# frame (z, x) first, then outcome (plus, minus): BB84's id order, 2 * basis + bit
REFERENCE_STATES = {"z+": Z_PLUS, "z-": Z_MINUS, "x+": X_PLUS, "x-": X_MINUS}
# the paper's pair: B92's states, and the pair Eve discriminates
B92_STATES = (Z_PLUS, X_PLUS)


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
    """Rotate a state by `angle` about the Bloch y axis (see `rotate_kets`).

    Maps Bloch angle theta to theta + angle in the x-z plane; at angle 0
    the amplitudes are returned bit-for-bit unchanged.
    """
    return QubitState(*rotate_kets(state.vector, [angle])[0].tolist())


def inner_product(a: QubitState, b: QubitState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    return a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1


def orthogonal_state(state: QubitState) -> QubitState:
    """The state orthogonal to `state` (unique up to phase)."""
    return QubitState(-state.amp1.conjugate(), state.amp0.conjugate())


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise, each real product rounded before the sum as in
    Python's complex product: the one rule by which every complex product
    of arrays is formed. numpy's vectorised complex multiply may fuse them,
    and then its last bit depends on the CPU's SIMD level."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def outer(v: np.ndarray) -> np.ndarray:
    """|v><v| of every vector along the last axis of `v`, shape (..., 2, 2),
    each entry v_i conj(v_j) one `_product`, as Python's complex product
    rounds it."""
    return _product(v[..., :, None], v.conj()[..., None, :])


def inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> of the vectors along the last axes of `a` and `b`, broadcast
    over the leading axes: `inner_product`'s sum of two `_product`s, so
    each equals that function's bit for bit."""
    return _product(a[..., 0].conj(), b[..., 0]) + _product(a[..., 1].conj(), b[..., 1])


def rotate_kets(kets: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """The kets along the last axis of `kets` (shape (..., 2)) rotated about
    the Bloch y axis by each of `angles`, shape (angles, ..., 2):
    (c k0 - s k1, s k0 + c k1) with the half angle's cosine c and sine s
    taken by `math`, each product a `_product` of the real factor as a
    complex number, as Python's float-by-complex product rounds it."""
    half = [angle / 2.0 for angle in angles]
    shape = (len(half),) + (1,) * (kets.ndim - 1)
    c = np.array([math.cos(h) for h in half], dtype=complex).reshape(shape)
    s = np.array([math.sin(h) for h in half], dtype=complex).reshape(shape)
    k0, k1 = kets[..., 0], kets[..., 1]
    return np.stack([_product(c, k0) - _product(s, k1), _product(s, k0) + _product(c, k1)], -1)


def born(elements: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Tr(E rho) = sum_ij Re(E_ij rho_ji) of the operators `elements` on
    the densities `densities`, both (..., 2, 2), broadcast over the
    leading axes. Each term is the real part of a `_product`, and the
    four are summed left to right, ij = 00, 01, 10, 11: the one rule by
    which every Born probability is formed."""
    rho = densities.swapaxes(-1, -2)
    terms = elements.real * rho.real - elements.imag * rho.imag
    return terms[..., 0, 0] + terms[..., 0, 1] + terms[..., 1, 0] + terms[..., 1, 1]


def projector(state: QubitState) -> np.ndarray:
    """Rank-1 projector |psi><psi| as a 2x2 array (see `outer`)."""
    return outer(state.vector)


# the kets of `REFERENCE_STATES`, shape (references, 2), then every label
REFERENCE_KETS = np.array([s.vector for s in REFERENCE_STATES.values()])
REFERENCE_KETS.setflags(write=False)
_LABELS = (*REFERENCE_STATES, "other")


def state_labels(vectors: np.ndarray) -> list[str]:
    """Name each state vector, a row of `vectors` (shape (states, 2)), by
    the first `REFERENCE_STATES` key it matches, else "other".

    A state matches a reference up to global phase, when |<ref|v>|^2 is
    within `_LABEL_TOL` of 1. The overlaps come from one `inner_products`
    call; each modulus is taken by `hypot` and squared by a product, as
    `abs` and a product of Python floats would take them.
    """
    overlap = inner_products(REFERENCE_KETS[:, None], vectors)
    modulus = np.hypot(overlap.real, overlap.imag)
    match = np.abs(modulus * modulus - 1.0) <= _LABEL_TOL
    first = np.where(match.any(axis=0), match.argmax(axis=0), len(REFERENCE_STATES))
    return [_LABELS[i] for i in first.tolist()]


def eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Both eigenvalues of each Hermitian [[a, b*], [b, d]] of `mats`
    (shape (..., 2, 2)), shape (..., 2), in ascending order, in closed
    form, (a + d)/2 -+ hypot((a - d)/2, |b|), from the diagonal's real
    parts and the lower entry b, the entries LAPACK's `eigvalsh` reads:
    the one rule by which every eigenvalue is formed."""
    a, d, b = mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 1, 0]
    mean, radius = (a + d) / 2.0, np.hypot((a - d) / 2.0, np.abs(b))
    return np.stack([mean - radius, mean + radius], axis=-1)


def _check_operators(mats: np.ndarray, what: str, complete: bool = False) -> np.ndarray:
    """The 2x2 operators `mats`, an array of shape (..., 2, 2) with any
    leading batch dimensions, made read-only and returned once checked
    finite, Hermitian and positive semidefinite to ALGEBRA_TOL; `what`
    names one operator in the error messages. With `complete`, the
    outcome axis -3 holds each POVM's elements, and every POVM must sum
    to the identity."""
    if mats.shape[-2:] != (2, 2):
        raise ValueError(f"{what} has shape {mats.shape[-2:]}, expected (2, 2)")
    if not np.all(np.isfinite(mats.view(float))):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(mats - mats.conj().swapaxes(-1, -2))) > ALGEBRA_TOL:
        raise ValueError(f"{what} is not Hermitian")
    if eigenvalues(mats)[..., 0].min() < -ALGEBRA_TOL:
        raise ValueError(f"{what} is not positive semidefinite")
    if complete and np.max(np.abs(mats.sum(axis=-3) - _IDENTITY)) > ALGEBRA_TOL:
        raise ValueError("POVM elements do not sum to the identity")
    mats.setflags(write=False)
    return mats


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to identity: one read-only (k, 2, 2)
    element stack, k >= 1.

    Validated at construction by `_check_operators`: Hermiticity and
    completeness to 1e-12, eigenvalues >= -1e-12. Element order is part
    of the contract; an outcome is its element's index, and outcome
    sampling walks the inverse CDF in that order. Compared by identity.
    """

    elements: np.ndarray

    def __init__(self, elements: Sequence[np.ndarray]) -> None:
        mats = np.array(elements, dtype=complex)
        if not mats.size:
            raise ValueError("POVM needs at least one element")
        if mats.ndim != 3:
            raise ValueError(f"POVM elements have shape {mats.shape}, expected (k, 2, 2)")
        object.__setattr__(self, "elements", _check_operators(mats, "POVM element", complete=True))


def projective_povm(plus: QubitState, minus: QubitState) -> Povm:
    """Two-outcome projective measurement onto an orthonormal pair."""
    return Povm((projector(plus), projector(minus)))


SZ_POVM = projective_povm(Z_PLUS, Z_MINUS)
SX_POVM = projective_povm(X_PLUS, X_MINUS)


def born_probabilities(state: QubitState, povm: Povm) -> np.ndarray:
    """Outcome probabilities <psi|E_i|psi>, clamped to [0, 1]."""
    return np.clip(born(povm.elements, projector(state)), 0.0, 1.0)


def measurement_probs(state: QubitState, basis: str) -> tuple[float, float]:
    """(plus, minus) probabilities for the z or x projective basis; any
    other basis, "Z" too, is a ValueError."""
    if basis not in ("z", "x"):
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    p = born_probabilities(state, SZ_POVM if basis == "z" else SX_POVM)
    return (float(p[0]), float(p[1]))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian, PSD, unit-trace operator, compared by identity."""

    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2:
            raise ValueError(f"density matrix has shape {mat.shape}, expected (2, 2)")
        _check_operators(mat, "density matrix")
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


def density_equal(a: DensityMatrix, b: DensityMatrix) -> bool:
    """True iff the max entrywise modulus difference is within ALGEBRA_TOL."""
    return bool(np.max(np.abs(a.matrix - b.matrix)) <= ALGEBRA_TOL)


def random_povm(rng: RngStream) -> Povm:
    """Random three-element POVM of rank-1 elements, built in Bloch form.

    E_k = (w_k I + v_k . sigma) / (w_1 + w_2 + w_3) with w_k = |v_k|: v_1
    and v_2 are random directions (theta = acos(1 - 2u), phi = 2 pi u)
    scaled by weights in [0.2, 1), drawn in that order, and
    v_3 = -v_1 - v_2. Each element is positive with one zero eigenvalue,
    and the elements add to the identity, by construction; every entry is
    real float arithmetic, so its bits do not depend on the CPU.
    """
    vectors = []
    for _ in range(2):
        theta = math.acos(1.0 - 2.0 * rng.uniform())
        phi = 2.0 * math.pi * rng.uniform()
        weight = 0.2 + 0.8 * rng.uniform()
        r = weight * math.sin(theta)
        vectors.append((r * math.cos(phi), r * math.sin(phi), weight * math.cos(theta)))
    vectors.append(tuple(-a - b for a, b in zip(*vectors)))
    weights = [math.hypot(*v) for v in vectors]
    total = sum(weights)
    return Povm([
        [[complex((w + z) / total), complex(x / total, -y / total)],
         [complex(x / total, y / total), complex((w - z) / total)]]
        for (x, y, z), w in zip(vectors, weights)
    ])
