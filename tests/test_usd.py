"""Unambiguous discrimination: schemes, optimal POVM, feasibility, no-signaling."""

import math

import numpy as np
import pytest

from qkdsim.quantum import (
    Povm,
    QubitState,
    SZ_POVM,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    born_probabilities,
    inner_product,
    mixture_density,
    orthogonal_state,
    projector,
    random_povm,
    rotate_y,
    state_from_bloch,
)
from qkdsim.adversary import HALF_PI, EveKind, EveStrategy
from qkdsim.rng import RngStream
from qkdsim.usd import (
    UsdSchemeKind,
    idp_elements,
    idp_povm,
    naive_frame_elements,
    naive_frame_povms,
    no_signaling_distributions,
    usd_efficiency,
    usd_feasible,
)
from reference import (
    integers,
    scalar_idp_povm,
    scalar_naive_frame_povms,
    usd_measure,
    verify_unambiguous_constraints,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
BB84_STATES = (Z_PLUS, Z_MINUS, X_PLUS, X_MINUS)
NAIVE = EveStrategy.of(EveKind.USD_SUPPRESS)
OPTIMAL = EveStrategy.of(EveKind.USD_SUPPRESS, UsdSchemeKind.OPTIMAL_IDP)


def _conclusive_frequency(strategy, state, n, seed):
    rng = RngStream(seed)
    return sum(usd_measure(strategy, state, rng).conclusive for _ in range(n)) / n


class TestMeasurement:
    def test_naive_never_misidentifies(self):
        """Wrong conclusive outcomes have exactly zero Born weight."""
        rng = RngStream(1)
        for _ in range(100_000):
            out = usd_measure(NAIVE, Z_PLUS, rng)
            assert out.identified != 1
            out = usd_measure(NAIVE, X_PLUS, rng)
            assert out.identified != 0

    def test_naive_conclusive_rate_quarter(self):
        n = 100_000
        sigma = math.sqrt(0.25 * 0.75 / n)
        for seed, state in ((5, Z_PLUS), (6, X_PLUS)):
            freq = _conclusive_frequency(NAIVE, state, n, seed)
            assert freq == pytest.approx(0.25, abs=4 * sigma)

    def test_optimal_conclusive_rate(self):
        n = 100_000
        expected = 1.0 - SQRT_HALF
        sigma = math.sqrt(expected * (1 - expected) / n)
        for seed, state in ((7, Z_PLUS), (8, X_PLUS)):
            freq = _conclusive_frequency(OPTIMAL, state, n, seed)
            assert freq == pytest.approx(expected, abs=4 * sigma)

    def test_optimal_beats_naive(self):
        n = 50_000
        naive = _conclusive_frequency(NAIVE, Z_PLUS, n, 11)
        optimal = _conclusive_frequency(OPTIMAL, Z_PLUS, n, 11)
        assert optimal > naive

    def test_deterministic_given_seed(self):
        a = [usd_measure(OPTIMAL, X_PLUS, RngStream(3)).identified for _ in range(20)]
        b = [usd_measure(OPTIMAL, X_PLUS, RngStream(3)).identified for _ in range(20)]
        assert a == b


class TestEfficiency:
    def test_naive_standard_pair_exact(self):
        """1/4 whatever the pair: the naive scheme never builds its states."""
        built = []

        def pair():
            built.append(1)
            return Z_PLUS, X_PLUS

        assert usd_efficiency(UsdSchemeKind.NAIVE_RANDOM_BASIS, pair) == 0.25
        assert built == []

    def test_optimal_standard_pair(self):
        efficiency = usd_efficiency(UsdSchemeKind.OPTIMAL_IDP, lambda: (Z_PLUS, X_PLUS))
        assert efficiency == pytest.approx(1.0 - SQRT_HALF, abs=1e-15)

    def test_optimal_orthogonal_pair_is_one(self):
        efficiency = usd_efficiency(UsdSchemeKind.OPTIMAL_IDP, lambda: (Z_PLUS, Z_MINUS))
        assert efficiency == pytest.approx(1.0)

    def test_efficiency_matches_born_rule(self):
        """Closed form cross-checked against the constructed POVM."""
        povm = idp_povm(Z_PLUS, X_PLUS)
        avg = 0.5 * (
            born_probabilities(Z_PLUS, povm)[0] + born_probabilities(X_PLUS, povm)[1]
        )
        efficiency = usd_efficiency(UsdSchemeKind.OPTIMAL_IDP, lambda: (Z_PLUS, X_PLUS))
        assert avg == pytest.approx(efficiency, abs=1e-12)


class TestIdpPovm:
    def test_standard_pair_properties(self):
        povm = idp_povm(Z_PLUS, X_PLUS)
        assert verify_unambiguous_constraints(povm, (Z_PLUS, X_PLUS))
        rate = 1.0 - SQRT_HALF
        assert born_probabilities(Z_PLUS, povm)[0] == pytest.approx(rate, abs=1e-12)
        assert born_probabilities(X_PLUS, povm)[1] == pytest.approx(rate, abs=1e-12)

    def test_orthogonal_limit_is_projective(self):
        povm = idp_povm(Z_PLUS, Z_MINUS)
        np.testing.assert_allclose(povm.elements[0], projector(Z_PLUS), atol=1e-12)
        np.testing.assert_allclose(povm.elements[1], projector(Z_MINUS), atol=1e-12)
        np.testing.assert_allclose(povm.elements[2], np.zeros((2, 2)), atol=1e-12)

    def test_completeness_over_random_pairs(self):
        rng = RngStream(17)
        for _ in range(100):
            a = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            b = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            if abs(inner_product(a, b)) > 1.0 - 1e-6:
                continue
            povm = idp_povm(a, b)
            np.testing.assert_allclose(sum(povm.elements), np.eye(2), atol=1e-12)
            assert verify_unambiguous_constraints(povm, (a, b))
            rate = 1.0 - abs(inner_product(a, b))
            assert born_probabilities(a, povm)[0] == pytest.approx(rate, abs=1e-12)
            assert born_probabilities(b, povm)[1] == pytest.approx(rate, abs=1e-12)

    def test_rejects_nearly_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            idp_povm(Z_PLUS, Z_PLUS)


class TestUnambiguousConstraints:
    def test_projective_sz_fails_for_nonorthogonal_pair(self):
        labeled = Povm(SZ_POVM.elements, ("conclusive0", "conclusive1"))
        assert not verify_unambiguous_constraints(labeled, (Z_PLUS, X_PLUS))

    def test_projective_sz_passes_for_orthogonal_pair(self):
        labeled = Povm(SZ_POVM.elements, ("conclusive0", "conclusive1"))
        assert verify_unambiguous_constraints(labeled, (Z_PLUS, Z_MINUS))

    def test_count_mismatch_raises(self):
        povm = idp_povm(Z_PLUS, X_PLUS)
        with pytest.raises(ValueError, match="per state"):
            verify_unambiguous_constraints(povm, (Z_PLUS,))


class TestFeasibility:
    def test_standard_pair_feasible(self):
        assert usd_feasible([Z_PLUS, X_PLUS])

    def test_four_bb84_states_infeasible(self):
        assert not usd_feasible(list(BB84_STATES))

    def test_single_state_feasible(self):
        assert usd_feasible([Z_PLUS])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            usd_feasible([])

    def test_three_or_more_qubit_states_never_feasible(self):
        rng = RngStream(23)
        for _ in range(30):
            states = [
                state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
                for _ in range(3 + integers(rng, 3))
            ]
            assert not usd_feasible(states)

    def test_permutation_invariant(self):
        states = [Z_PLUS, X_PLUS]
        assert usd_feasible(states) == usd_feasible(states[::-1])
        four = list(BB84_STATES)
        assert usd_feasible(four) == usd_feasible(four[::-1])

    def test_feasible_iff_idp_constructible(self):
        rng = RngStream(29)
        for _ in range(50):
            a = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            b = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            if usd_feasible([a, b]):
                assert verify_unambiguous_constraints(idp_povm(a, b), (a, b))
            else:
                with pytest.raises(ValueError):
                    idp_povm(a, b)


def _random_decompositions_of_same_density(rng):
    """Two ensembles with one density matrix, via unitary ensemble mixing."""
    theta, phi = rng.uniform() * math.pi, rng.uniform() * 2 * math.pi
    up = state_from_bloch(theta, phi)
    down = orthogonal_state(up)
    lam = 0.5 * rng.uniform()  # eigenvalues (1 - lam, lam)
    decomp_a = ((up, down), (1.0 - lam, lam))

    # mix the weighted eigenvectors by a random unitary
    alpha = rng.uniform() * 2 * math.pi
    c, s = math.cos(alpha), math.sin(alpha)
    v0 = math.sqrt(1.0 - lam) * up.vector
    v1 = math.sqrt(lam) * down.vector
    w0 = c * v0 + s * v1
    w1 = -s * v0 + c * v1
    states, probs = [], []
    for w in (w0, w1):
        p = float(np.real(w.conj() @ w))
        states.append(QubitState(*(w / math.sqrt(p))))
        probs.append(p)
    return decomp_a, (tuple(states), tuple(probs))


class TestNoSignaling:
    def test_equal_mixtures_indistinguishable_for_random_povms(self):
        rng = RngStream(37)
        z_mixture = mixture_density((Z_PLUS, Z_MINUS), (0.5, 0.5))
        x_mixture = mixture_density((X_PLUS, X_MINUS), (0.5, 0.5))
        for _ in range(100):
            povm = random_povm(rng, size=3)
            _, _, diff = no_signaling_distributions(povm, z_mixture, x_mixture)
            assert diff <= 1e-10

    def test_pure_states_distinguishable(self):
        probs_a, probs_b, diff = no_signaling_distributions(
            SZ_POVM, mixture_density((Z_PLUS,), (1.0,)), mixture_density((X_PLUS,), (1.0,))
        )
        np.testing.assert_allclose(probs_a, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(probs_b, [0.5, 0.5], atol=1e-12)
        assert diff == pytest.approx(0.5, abs=1e-12)

    def test_idp_povm_cannot_distinguish_the_mixtures(self):
        povm = idp_povm(Z_PLUS, X_PLUS)
        _, _, diff = no_signaling_distributions(
            povm,
            mixture_density((Z_PLUS, Z_MINUS), (0.5, 0.5)),
            mixture_density((X_PLUS, X_MINUS), (0.5, 0.5)),
        )
        assert diff <= 1e-10

    def test_any_decomposition_pair_of_same_density(self):
        rng = RngStream(41)
        for _ in range(100):
            decomp_a, decomp_b = _random_decompositions_of_same_density(rng)
            povm = random_povm(rng, size=3)
            _, _, diff = no_signaling_distributions(
                povm, mixture_density(*decomp_a), mixture_density(*decomp_b)
            )
            assert diff <= 1e-10


class TestFramePovms:
    def test_zero_rotation_matches_standard_bases(self):
        z_frame, x_frame = naive_frame_povms(0.0)
        np.testing.assert_allclose(z_frame.elements[0], projector(Z_PLUS), atol=0)
        np.testing.assert_allclose(x_frame.elements[1], projector(X_MINUS), atol=0)

    def test_rotated_frames_are_valid_povms(self):
        for rotation in (0.1, 0.4, 1.2):
            for povm in naive_frame_povms(rotation):
                np.testing.assert_allclose(sum(povm.elements), np.eye(2), atol=1e-12)


# 2,000 rotations: a grid from 0, the smallest subnormal and the largest below pi/2
_ROTATIONS = [5e-324, math.nextafter(HALF_PI, 0.0)] + np.linspace(
    0.0, HALF_PI, 1_998, endpoint=False
).tolist()


def _bits(elements) -> np.ndarray:
    return np.asarray(elements, dtype=complex).view(np.uint64)


class TestBatchElementBuilders:
    """The batch builders equal the per-point POVMs' elements and the
    scalar reference bit for bit, row by row."""

    def test_naive_frames_equal_per_point_povms(self):
        elements = naive_frame_elements(_ROTATIONS)
        assert elements.shape == (len(_ROTATIONS), 2, 2, 2, 2)
        for rotation, row in zip(_ROTATIONS, elements):
            per_point = [povm.elements for povm in naive_frame_povms(rotation)]
            scalar = [povm.elements for povm in scalar_naive_frame_povms(rotation)]
            assert np.array_equal(_bits(row), _bits(per_point))
            assert np.array_equal(_bits(row), _bits(scalar))

    def test_idp_equals_per_point_povms_on_rotated_pairs(self):
        pairs = [(rotate_y(Z_PLUS, d), rotate_y(X_PLUS, d)) for d in _ROTATIONS]
        elements = idp_elements(pairs)
        assert elements.shape == (len(pairs), 1, 3, 2, 2)
        for pair, row in zip(pairs, elements):
            assert np.array_equal(_bits(row[0]), _bits(idp_povm(*pair).elements))
            assert np.array_equal(_bits(row[0]), _bits(scalar_idp_povm(*pair).elements))

    def test_idp_equals_scalar_reference_on_complex_pairs(self):
        """With complex amplitudes every product's rounding shows: the
        overlap and its modulus are rounded as the scalar algebra rounds them."""
        rng = RngStream(23)
        pairs = [
            tuple(state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
                  for _ in range(2))
            for _ in range(500)
        ]
        for pair, row in zip(pairs, idp_elements(pairs)):
            assert np.array_equal(_bits(row[0]), _bits(scalar_idp_povm(*pair).elements))

    @staticmethod
    def _pair_with_overlap(overlap):
        return Z_PLUS, QubitState(complex(overlap), complex(math.sqrt(1.0 - overlap**2)))

    def test_idp_builds_a_pair_of_overlap_1_minus_1e_10(self):
        (row,) = idp_elements([self._pair_with_overlap(1.0 - 1e-10)])
        assert np.all(np.isfinite(row))

    def test_idp_rejects_a_pair_of_overlap_1_minus_1e_13(self):
        with pytest.raises(ValueError, match="parallel"):
            idp_elements([self._pair_with_overlap(1.0 - 1e-13)])

    def test_idp_rejects_a_parallel_pair_among_many(self):
        pairs = [(Z_PLUS, X_PLUS), (X_PLUS, X_PLUS), (Z_PLUS, Z_MINUS)]
        with pytest.raises(ValueError, match="parallel"):
            idp_elements(pairs)
