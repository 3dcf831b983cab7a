"""State algebra, POVM validity, Born sampling and density matrices."""

import math

import numpy as np
import pytest

from qkdsim.quantum import (
    DensityMatrix,
    Povm,
    QubitState,
    SX_POVM,
    SZ_POVM,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    _check_operators,
    born_probabilities,
    density_equal,
    inner_product,
    mixture_density,
    orthogonal_state,
    projective_povm,
    projector,
    random_povm,
    rotate_y,
    state_from_bloch,
    state_label,
)
from qkdsim.rng import RngStream
from reference import sample_outcome

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestStates:
    def test_bloch_poles(self):
        north = state_from_bloch(0.0, 0.0)
        assert north.amp0 == pytest.approx(1.0, abs=1e-12)
        assert abs(north.amp1) == pytest.approx(0.0, abs=1e-12)
        south = state_from_bloch(math.pi, 0.0)
        assert abs(south.amp0) == pytest.approx(0.0, abs=1e-12)
        assert abs(south.amp1) == pytest.approx(1.0, abs=1e-12)

    def test_bloch_equator_is_x_plus(self):
        eq = state_from_bloch(math.pi / 2, 0.0)
        assert eq.amp0 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert eq.amp1 == pytest.approx(SQRT_HALF, abs=1e-12)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.2, 0.0), (0.0, -0.1), (0.0, 7.0)])
    def test_bloch_rejects_out_of_range(self, theta, phi):
        with pytest.raises(ValueError):
            state_from_bloch(theta, phi)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            QubitState(1.0 + 0.0j, 1.0 + 0.0j)

    @pytest.mark.parametrize("off", [1e-13, -1e-13])
    def test_normalization_tolerates_rounding(self, off):
        state = QubitState(complex(math.sqrt(1.0 + off)), 0.0j)
        assert abs(abs(state.amp0) ** 2 - 1.0) < 2e-13

    @pytest.mark.parametrize("off", [1e-10, -1e-10])
    def test_normalization_rejects_a_state_off_by_1e_10(self, off):
        with pytest.raises(ValueError, match="normalized"):
            QubitState(complex(math.sqrt(1.0 + off)), 0.0j)

    def test_finiteness_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            QubitState(complex("nan"), 0.0j)

    def test_normalization_over_random_angles(self):
        rng = RngStream(21)
        for _ in range(100):
            s = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            assert abs(s.amp0) ** 2 + abs(s.amp1) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotate_y_quarter_turn(self):
        rotated = rotate_y(Z_PLUS, math.pi / 2)
        assert abs(inner_product(X_PLUS, rotated)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotate_y_zero_is_bitwise_identity(self):
        for s in (Z_PLUS, X_PLUS, X_MINUS):
            r = rotate_y(s, 0.0)
            assert (r.amp0, r.amp1) == (s.amp0, s.amp1)

    def test_state_label(self):
        assert state_label(Z_PLUS) == "z+"
        assert state_label(X_MINUS) == "x-"
        assert state_label(state_from_bloch(1.0, 0.3)) == "other"


class TestInnerProduct:
    def test_identity_and_orthogonality(self):
        assert inner_product(Z_PLUS, Z_PLUS) == pytest.approx(1.0)
        assert inner_product(Z_PLUS, Z_MINUS) == pytest.approx(0.0)

    def test_standard_pair_overlap(self):
        ip = inner_product(Z_PLUS, X_PLUS)
        assert ip == pytest.approx(SQRT_HALF, abs=1e-15)
        assert abs(ip) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_conjugate_linearity_in_first_argument(self):
        a = state_from_bloch(0.7, 1.1)
        b = state_from_bloch(2.1, 4.0)
        assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate())

    def test_magnitude_bounded(self):
        rng = RngStream(3)
        for _ in range(50):
            a = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            b = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            assert abs(inner_product(a, b)) <= 1.0 + 1e-12

    def test_orthogonal_state_is_orthogonal(self):
        rng = RngStream(4)
        for _ in range(50):
            s = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            assert abs(inner_product(orthogonal_state(s), s)) < 1e-15


class TestPovmValidation:
    def test_projective_povms_valid(self):
        for povm in (SZ_POVM, SX_POVM):
            total = sum(povm.elements)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            Povm((bad, np.eye(2) - bad), ("a", "b"))

    def test_rejects_negative_element(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            Povm((bad, np.eye(2) - bad), ("a", "b"))

    def test_rejects_incomplete(self):
        half = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="identity"):
            Povm((half, 0.25 * np.eye(2)), ("a", "b"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Povm((np.eye(2, dtype=complex),), ("a", "b"))

    def test_random_povms_satisfy_invariants(self):
        """Hermiticity, positivity, completeness over random mixtures."""
        rng = RngStream(8)
        for _ in range(100):
            povm = random_povm(rng, size=3)
            total = np.zeros((2, 2), dtype=complex)
            for e in povm.elements:
                np.testing.assert_allclose(e, e.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(e).min() >= -1e-12
                total += e
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def _frame_stack() -> np.ndarray:
    """Forty valid POVMs of two frames each: the z and x bases rotated by
    0 to 1.5, shape (40, 2 frames, 2 outcomes, 2, 2)."""
    bases = ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS))
    return np.array([
        [projective_povm(rotate_y(p, r), rotate_y(m, r), ("p", "m")).elements for p, m in bases]
        for r in np.linspace(0.0, 1.5, 40)
    ])


class TestStackedCheck:
    """`_check_operators` over leading batch dimensions: one bad POVM
    among many fails with the message a lone `Povm` gives."""

    def test_valid_stack_passes_read_only(self):
        stack = _check_operators(_frame_stack(), "POVM element", complete=True)
        assert stack.shape == (40, 2, 2, 2, 2) and not stack.flags.writeable

    def test_rejects_one_non_hermitian(self):
        stack = _frame_stack()
        stack[17, 1, 0, 0, 1] += 0.1
        with pytest.raises(ValueError, match="^POVM element is not Hermitian$"):
            _check_operators(stack, "POVM element", complete=True)

    def test_rejects_one_not_psd(self):
        stack = _frame_stack()
        stack[23, 0] = [np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]
        with pytest.raises(ValueError, match="^POVM element is not positive semidefinite$"):
            _check_operators(stack, "POVM element", complete=True)

    def test_rejects_one_incomplete(self):
        stack = _frame_stack()
        stack[5, 1, 0] *= 0.5
        with pytest.raises(ValueError, match="^POVM elements do not sum to the identity$"):
            _check_operators(stack, "POVM element", complete=True)

    def test_completeness_is_per_povm(self):
        """A surplus in one POVM and the same deficit in another cancel in a
        batch-wide sum, but fail each POVM's own sum."""
        stack = _frame_stack()
        moved = 1e-6 * stack[4, 0, 0]
        stack[4, 0, 0] -= moved
        stack[3, 0, 0] += moved
        assert np.max(np.abs(stack.sum(axis=(0, 2)) - 40 * np.eye(2))) < 1e-12
        with pytest.raises(ValueError, match="^POVM elements do not sum to the identity$"):
            _check_operators(stack, "POVM element", complete=True)


class TestBornRule:
    def test_eigenstate_is_deterministic(self):
        np.testing.assert_allclose(born_probabilities(Z_PLUS, SZ_POVM), [1.0, 0.0], atol=1e-15)

    def test_unbiased_bases(self):
        np.testing.assert_allclose(born_probabilities(Z_PLUS, SX_POVM), [0.5, 0.5], atol=1e-12)

    def test_idp_conclusive_weight_on_x_plus(self):
        """The optimal discriminator fires its x+ outcome at rate 1 - 1/sqrt(2)."""
        from qkdsim.usd import idp_povm

        povm = idp_povm(Z_PLUS, X_PLUS)
        probs = born_probabilities(X_PLUS, povm)
        assert probs[1] == pytest.approx(1.0 - SQRT_HALF, abs=1e-12)
        assert probs[0] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = RngStream(9)
        for _ in range(100):
            state = state_from_bloch(rng.uniform() * math.pi, rng.uniform() * 2 * math.pi)
            povm = random_povm(rng, size=4)
            assert born_probabilities(state, povm).sum() == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_certain_outcome(self):
        rng = RngStream(1)
        assert all(sample_outcome(Z_PLUS, SZ_POVM, rng) == "z+" for _ in range(200))

    def test_deterministic_given_seed(self):
        labels_a = [sample_outcome(Z_PLUS, SX_POVM, RngStream(77)) for _ in range(50)]
        labels_b = [sample_outcome(Z_PLUS, SX_POVM, RngStream(77)) for _ in range(50)]
        assert labels_a == labels_b

    def test_empirical_frequency_matches_born(self):
        """x- frequency on z+ concentrates at 1/2 within 4 sigma binomial."""
        n = 100_000
        rng = RngStream(42)
        hits = sum(sample_outcome(Z_PLUS, SX_POVM, rng) == "x-" for _ in range(n))
        sigma = math.sqrt(0.25 / n)
        assert hits / n == pytest.approx(0.5, abs=4 * sigma)


class TestDensityMatrices:
    def test_half_half_orthonormal_pairs_give_identity_over_two(self):
        for pair in ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS)):
            rho = mixture_density(pair, (0.5, 0.5))
            np.testing.assert_allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-12)

    def test_random_direction_pairs_give_identity_over_two(self):
        rng = RngStream(31)
        for _ in range(100):
            theta, phi = rng.uniform() * math.pi, rng.uniform() * 2 * math.pi
            up = state_from_bloch(theta, phi)
            rho = mixture_density((up, orthogonal_state(up)), (0.5, 0.5))
            assert density_equal(rho, DensityMatrix(0.5 * np.eye(2)), 1e-12)

    def test_pure_state_density(self):
        rho = mixture_density((Z_PLUS,), (1.0,))
        np.testing.assert_allclose(rho.matrix, projector(Z_PLUS), atol=1e-15)

    def test_mixture_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="length"):
            mixture_density((Z_PLUS,), (0.5, 0.5))
        with pytest.raises(ValueError, match="sum"):
            mixture_density((Z_PLUS, Z_MINUS), (0.6, 0.6))
        with pytest.raises(ValueError, match="nonnegative"):
            mixture_density((Z_PLUS, Z_MINUS), (1.5, -0.5))

    def test_density_validation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
    def test_density_rejects_non_finite_entries(self, bad):
        """Every comparison with NaN is False, so finiteness is checked first."""
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_density_equal(self):
        half = DensityMatrix(0.5 * np.eye(2))
        assert density_equal(half, half, 1e-12)
        pure = DensityMatrix(projector(Z_PLUS))
        assert not density_equal(pure, half, 1e-12)
        z_mix = mixture_density((Z_PLUS, Z_MINUS), (0.5, 0.5))
        x_mix = mixture_density((X_PLUS, X_MINUS), (0.5, 0.5))
        assert density_equal(z_mix, x_mix, 1e-12)

    def test_projective_povm_from_rotated_pair(self):
        up = state_from_bloch(0.9, 0.0)
        povm = projective_povm(up, orthogonal_state(up), ("p", "m"))
        assert born_probabilities(up, povm)[0] == pytest.approx(1.0, abs=1e-12)
