"""State algebra, POVM validity, Born sampling and density matrices."""

import math
from dataclasses import fields

import numpy as np
import pytest

from qkdsim.quantum import (
    B92_STATES,
    DensityMatrix,
    Povm,
    QubitState,
    REFERENCE_STATES,
    SX_POVM,
    SZ_POVM,
    X_MINUS,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
    _check_operators,
    born,
    born_probabilities,
    density_equal,
    eigenvalues,
    inner_product,
    inner_products,
    measurement_probs,
    mixture_density,
    orthogonal_state,
    outer,
    projective_povm,
    projector,
    random_povm,
    rotate_kets,
    rotate_y,
    _LABEL_TOL,
    state_from_bloch,
    state_labels,
)
from qkdsim.rng import RngStream
from reference import sample_outcome, scalar_projector, scalar_rotate_y, state_label, uniforms

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
        states = (Z_PLUS, X_MINUS, state_from_bloch(1.0, 0.3))
        assert state_labels(np.array([s.vector for s in states])) == ["z+", "x-", "other"]

    def test_reference_states_frame_first_then_outcome(self):
        """The one list of reference states, in BB84's id order 2 * basis + bit,
        each named by its own label; the B92 pair is |z+> and |x+>."""
        assert list(REFERENCE_STATES.items()) == [
            ("z+", Z_PLUS), ("z-", Z_MINUS), ("x+", X_PLUS), ("x-", X_MINUS)
        ]
        assert B92_STATES == (Z_PLUS, X_PLUS)
        vectors = np.array([s.vector for s in REFERENCE_STATES.values()])
        assert state_labels(vectors) == list(REFERENCE_STATES)


def _boundary_states(factors):
    """Each reference state rotated so that |<ref|psi>|^2 = 1 - tol * f for
    each f of `factors`, either way about the y axis, and at a global phase."""
    phase = complex(math.cos(0.7), math.sin(0.7))
    for ref in REFERENCE_STATES.values():
        for f in factors:
            for sign in (1.0, -1.0):
                state = rotate_y(ref, sign * 2.0 * math.asin(math.sqrt(_LABEL_TOL * f)))
                yield state
                yield QubitState(phase * state.amp0, phase * state.amp1)


class TestStateLabels:
    """`state_labels`, the array rule a batch labels its states by, names
    every state as `state_label` does."""

    @staticmethod
    def _both(states):
        labels = state_labels(np.array([s.vector for s in states]))
        assert labels == [state_label(s) for s in states]
        return labels

    def test_reference_states(self):
        assert self._both(list(REFERENCE_STATES.values())) == list(REFERENCE_STATES)

    def test_either_side_of_the_tolerance(self):
        """Just inside (f < 1) a state takes its reference's label and just
        outside it is "other"; within the rounding of the rotation, about
        2e-7 of tol, both rules still agree on every state."""
        inside = self._both(list(_boundary_states([1.0 - 1e-4, 1.0 - 1e-5])))
        assert inside == [label for label in REFERENCE_STATES for _ in range(8)]
        outside = self._both(list(_boundary_states([1.0 + 1e-5, 1.0 + 1e-4])))
        assert set(outside) == {"other"}
        self._both(list(_boundary_states(np.linspace(1.0 - 1e-6, 1.0 + 1e-6, 201))))

    def test_random_and_rotated_states(self):
        rng = RngStream(12)
        states = [state_from_bloch(math.acos(1.0 - 2.0 * rng.uniform()),
                                   2.0 * math.pi * rng.uniform()) for _ in range(2_000)]
        angles = [1.5707963267948966 * rng.uniform() for _ in range(1_000)]
        angles += [10.0 ** -k for k in range(1, 12)]
        states += [rotate_y(s, a) for s in B92_STATES for a in angles]
        assert "other" in self._both(states)


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
            Povm((bad, np.eye(2) - bad))

    def test_rejects_negative_element(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            Povm((bad, np.eye(2) - bad))

    def test_rejects_incomplete(self):
        half = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="identity"):
            Povm((half, 0.25 * np.eye(2)))

    def test_rejects_empty_and_misshapen(self):
        with pytest.raises(ValueError, match="^POVM needs at least one element$"):
            Povm(())
        with pytest.raises(ValueError, match=r"expected \(k, 2, 2\)$"):
            Povm(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match=r"^POVM element has shape \(3, 3\), expected \(2, 2\)$"):
            Povm((np.eye(3, dtype=complex),))

    def test_one_read_only_element_stack(self):
        assert [f.name for f in fields(Povm)] == ["elements"]
        assert SZ_POVM.elements.shape == (2, 2, 2) and not SZ_POVM.elements.flags.writeable
        np.testing.assert_array_equal(SZ_POVM.elements, [projector(Z_PLUS), projector(Z_MINUS)])

    def test_equality_and_hash_are_identity(self):
        """Equal-valued POVMs and densities compare unequal without raising;
        each equals itself, and both hash."""
        a, b = projective_povm(Z_PLUS, Z_MINUS), projective_povm(Z_PLUS, Z_MINUS)
        rho, sigma = DensityMatrix(0.5 * np.eye(2)), DensityMatrix(0.5 * np.eye(2))
        for x, y in ((a, b), (rho, sigma)):
            assert x == x and x != y and not (x == y)
            assert hash(x) == hash(x)
            assert len({x, y}) == 2
        np.testing.assert_array_equal(a.elements, b.elements)
        assert density_equal(rho, sigma)

    def test_random_povms_satisfy_invariants(self):
        """Hermiticity, positivity, rank 1 and completeness over random
        POVMs: the Bloch form (w I + v . sigma) with w = |v| has a zero
        eigenvalue, so its determinant is zero."""
        rng = RngStream(8)
        for _ in range(100):
            povm = random_povm(rng)
            total = np.zeros((2, 2), dtype=complex)
            for e in povm.elements:
                np.testing.assert_allclose(e, e.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(e).min() >= -1e-12
                assert abs(np.linalg.det(e)) <= 1e-12
                total += e
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def _frame_stack() -> np.ndarray:
    """Forty valid POVMs of two frames each: the z and x bases rotated by
    0 to 1.5, shape (40, 2 frames, 2 outcomes, 2, 2)."""
    bases = ((Z_PLUS, Z_MINUS), (X_PLUS, X_MINUS))
    return np.array([
        [projective_povm(rotate_y(p, r), rotate_y(m, r)).elements for p, m in bases]
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


def _random_states(seed, n):
    """n states at uniformly random points of the Bloch sphere."""
    rng = RngStream(seed)
    return [state_from_bloch(math.acos(1.0 - 2.0 * rng.uniform()), 2.0 * math.pi * rng.uniform())
            for _ in range(n)]


def _bits(x) -> np.ndarray:
    """The bits of a float or complex array, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float if np.isrealobj(x) else complex).view(np.uint64)


class TestArrayRules:
    """`rotate_kets`, `outer`, `inner_products` and `born`, the one array
    rule of each qubit quantity, round as the scalar Python arithmetic
    they replace, bit for bit: a change to a rule's rounding fails here."""

    def test_rotate_kets_equal_scalar_rotation(self):
        """At 0, the smallest subnormal, 1e-300, 1,000 random angles in
        [0, pi/2) and the largest float below pi/2, every reference ket and
        200 random kets rotate as the scalar Python rotation rotates them,
        and `rotate_y` is the rule on one ket."""
        angles = [0.0, 5e-324, 1e-300, math.nextafter(math.pi / 2, 0.0)]
        angles += (uniforms(RngStream(44), 1_000) * (math.pi / 2)).tolist()
        states = list(REFERENCE_STATES.values()) + _random_states(45, 200)
        rotated = rotate_kets(np.array([s.vector for s in states]), angles)
        assert rotated.shape == (len(angles), len(states), 2)
        for angle, row in zip(angles, rotated):
            expected = np.array([scalar_rotate_y(s, angle).vector for s in states])
            np.testing.assert_array_equal(_bits(row), _bits(expected))
        for angle in angles[:4]:
            for state in states[:8]:
                got, want = rotate_y(state, angle), scalar_rotate_y(state, angle)
                assert type(got.amp0) is complex and type(got.amp1) is complex
                assert _bits(got.vector).tolist() == _bits(want.vector).tolist()

    def test_rotate_kets_broadcasts_over_leading_axes(self):
        """A stack of kets of any leading shape rotates as its rows do."""
        kets = np.array([s.vector for s in _random_states(46, 12)])
        angles = [0.0, 0.3, 1.2]
        stacked = rotate_kets(kets.reshape(2, 3, 2, 2), angles)
        assert stacked.shape == (3, 2, 3, 2, 2)
        np.testing.assert_array_equal(
            _bits(stacked), _bits(rotate_kets(kets, angles).reshape(3, 2, 3, 2, 2))
        )

    def test_outer_equals_scalar_projector(self):
        states = _random_states(40, 2_000) + list(REFERENCE_STATES.values())
        states += [rotate_y(s, 0.3) for s in B92_STATES]
        stacked = outer(np.array([s.vector for s in states]))
        for state, mat in zip(states, stacked):
            np.testing.assert_array_equal(_bits(mat), _bits(scalar_projector(state)))
            np.testing.assert_array_equal(_bits(projector(state)), _bits(mat))

    def test_inner_products_equal_inner_product(self):
        kets = _random_states(41, 300) + list(REFERENCE_STATES.values())
        vectors = np.array([s.vector for s in kets])
        overlaps = inner_products(vectors[:, None], vectors)
        assert overlaps.shape == (len(kets), len(kets))
        expected = [[inner_product(a, b) for b in kets] for a in kets]
        np.testing.assert_array_equal(_bits(overlaps), _bits(expected))

    @staticmethod
    def _python_trace(element, density) -> float:
        """Re sum_ij E_ij rho_ji as Python sums complex products, term by
        term from ij = 00 to 11."""
        e, rho = element.tolist(), density.tolist()
        terms = [e[i][j] * rho[j][i] for i in range(2) for j in range(2)]
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total.real

    def test_born_equals_python_sum_of_complex_products(self):
        """Over random POVMs' elements on pure states and on mixtures of two
        and three states, each probability `born` gives, alone and
        broadcast over a stack, equals the sequential Python sum."""
        rng = RngStream(42)
        for seed in range(300):
            elements = random_povm(RngStream(seed)).elements
            kets = _random_states(1_000 + seed, 3)
            weights = uniforms(rng, 3)
            densities = [
                projector(kets[0]),
                mixture_density(kets[:2], (weights[0], 1.0 - weights[0])).matrix,
                mixture_density(kets, weights / weights.sum()).matrix,
            ]
            stacked = born(elements[:, None], np.array(densities))
            for k, element in enumerate(elements):
                for m, density in enumerate(densities):
                    expected = self._python_trace(element, density)
                    assert _bits(born(element, density)) == _bits(expected)
                    assert _bits(stacked[k, m]) == _bits(expected)

    def test_born_probabilities_are_born_on_the_projector(self):
        for seed, state in enumerate(_random_states(43, 200)):
            povm = random_povm(RngStream(seed))
            expected = [self._python_trace(e, scalar_projector(state)) for e in povm.elements]
            np.testing.assert_array_equal(
                _bits(born_probabilities(state, povm)), _bits(np.clip(expected, 0.0, 1.0))
            )


def _hermitian(lower: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Hermitian 2x2 stack with diagonal (a, d) and lower entry `lower`."""
    mats = np.empty(a.shape + (2, 2), dtype=complex)
    mats[..., 0, 0], mats[..., 1, 1] = a, d
    mats[..., 1, 0], mats[..., 0, 1] = lower, lower.conj()
    return mats


class TestClosedFormPositivity:
    """`eigenvalues` takes both eigenvalues of each 2x2 operator in closed
    form, and `_check_operators` reads the smaller; LAPACK's `eigvalsh`
    serves here only as the oracle."""

    def test_eigenvalues_equal_eigvalsh(self):
        u = 2.0 * uniforms(RngStream(44), 4 * 10_000).reshape(4, -1) - 1.0
        mats = _hermitian(u[0] + 1j * u[1], u[2], u[3]).reshape(100, 100, 2, 2)
        closed = eigenvalues(mats)
        assert closed.shape == (100, 100, 2)
        np.testing.assert_allclose(closed, np.linalg.eigvalsh(mats), rtol=0, atol=1e-15)

    def test_eigenvalues_of_random_povm_elements(self):
        elements = np.array([random_povm(RngStream(seed)).elements for seed in range(200)])
        np.testing.assert_allclose(eigenvalues(elements), np.linalg.eigvalsh(elements),
                                   rtol=0, atol=1e-15)

    @staticmethod
    def _with_eigenvalues(low, high, theta, phi):
        """The operator with eigenvalues low and high, its high eigenvector
        at Bloch angles (theta, phi): c I + r n.sigma, c +- r = high, low."""
        c, r = (high + low) / 2.0, (high - low) / 2.0
        nx, ny, nz = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
        return np.array([[c + r * nz, r * complex(nx, -ny)], [r * complex(nx, ny), c - r * nz]])

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.4, 1.0), (math.pi / 2, 2.5), (2.9, 5.0)])
    def test_tolerance_edge(self, theta, phi):
        """A smallest eigenvalue of -0.5e-12 passes and one of -2e-12 fails,
        whatever the eigenvectors, while the larger one is 1."""
        inside = self._with_eigenvalues(-0.5e-12, 1.0, theta, phi)
        _check_operators(inside, "operator")
        outside = self._with_eigenvalues(-2e-12, 1.0, theta, phi)
        with pytest.raises(ValueError, match="^operator is not positive semidefinite$"):
            _check_operators(outside, "operator")


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
            povm = random_povm(rng)
            assert born_probabilities(state, povm).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("basis", ["Z", "X", "y", "", None, 0])
    def test_measurement_probs_rejects_any_other_basis(self, basis):
        """Only "z" and "x" name a basis; anything else once measured in x."""
        with pytest.raises(ValueError, match="basis"):
            measurement_probs(Z_PLUS, basis)


class TestSampling:
    def test_certain_outcome(self):
        rng = RngStream(1)
        assert all(sample_outcome(Z_PLUS, SZ_POVM, rng) == 0 for _ in range(200))

    def test_deterministic_given_seed(self):
        outcomes_a = [sample_outcome(Z_PLUS, SX_POVM, RngStream(77)) for _ in range(50)]
        outcomes_b = [sample_outcome(Z_PLUS, SX_POVM, RngStream(77)) for _ in range(50)]
        assert outcomes_a == outcomes_b

    def test_empirical_frequency_matches_born(self):
        """x- frequency on z+ concentrates at 1/2 within 4 sigma binomial."""
        n = 100_000
        rng = RngStream(42)
        hits = sum(sample_outcome(Z_PLUS, SX_POVM, rng) == 1 for _ in range(n))
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
            assert density_equal(rho, DensityMatrix(0.5 * np.eye(2)))

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
        assert density_equal(half, half)
        pure = DensityMatrix(projector(Z_PLUS))
        assert not density_equal(pure, half)
        z_mix = mixture_density((Z_PLUS, Z_MINUS), (0.5, 0.5))
        x_mix = mixture_density((X_PLUS, X_MINUS), (0.5, 0.5))
        assert density_equal(z_mix, x_mix)

    def test_projective_povm_from_rotated_pair(self):
        up = state_from_bloch(0.9, 0.0)
        povm = projective_povm(up, orthogonal_state(up))
        assert born_probabilities(up, povm)[0] == pytest.approx(1.0, abs=1e-12)
