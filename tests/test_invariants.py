import math
from fractions import Fraction

import numpy as np
import pytest

from q2synth import numerics as nm
from q2synth.circuit import Axis, rotation_matrix2, su4_normalize
from q2synth.errors import CosetMismatch, NotUnitary
from q2synth.invariants import (
    _align_spectra,
    _magic_form,
    cnot_cost,
    cnot_lower_bound,
    gamma,
    invariant_data,
    same_double_coset,
    same_left_coset,
)
from q2synth.synthesis import match_local_factors

# The benchmark's plain-NumPy reference, which never imports q2synth.
import reference
from draws import su2


def random_local(rng):
    return nm.kron(su2(rng), su2(rng))


def gamma1(a):
    return a @ nm.SIGMA_Y @ a.T @ nm.SIGMA_Y


Q = math.pi / 4


def dressed_canonical(a, b, c, rng):
    """can(a, b, c) = exp(i(a XX + b YY + c ZZ)) between seeded local
    factors."""
    return random_local(rng) @ reference.canonical(a, b, c) @ random_local(rng)


class TestGamma:
    def test_identity(self):
        assert np.allclose(gamma(np.eye(4)), np.eye(4))

    def test_local_gates_map_to_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert np.max(np.abs(gamma(random_local(rng)) - np.eye(4))) <= 1e-12

    def test_cnot_spectrum(self):
        u, _ = su4_normalize(nm.CNOT01)
        data = invariant_data(u)
        assert sorted(np.angle(data.spectrum)) == pytest.approx(
            [-math.pi / 2, -math.pi / 2, math.pi / 2, math.pi / 2], abs=1e-10
        )
        # chi of the spectrum {i, i, -i, -i} is (x^2 + 1)^2.
        assert data.chi.close_to(nm.CharPoly4((1.0, 0.0, 2.0, 0.0, 1.0)), tol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            gamma(np.ones((4, 4)))

    def test_product_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = nm.haar_unitary(4, rng)
            v = nm.haar_unitary(4, rng)
            lhs = gamma(u @ v)
            rhs = u @ gamma(v) @ gamma(u.T).T @ np.linalg.inv(u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_tensor_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = nm.haar_unitary(2, rng), nm.haar_unitary(2, rng)
            lhs = gamma(nm.kron(a, b))
            rhs = nm.kron(gamma1(a), gamma1(b))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_scalar_rule_on_products(self):
        # gamma of a one-qubit product is (product of factor dets) * I
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = nm.haar_unitary(2, rng), nm.haar_unitary(2, rng)
            scalar = np.linalg.det(a) * np.linalg.det(b)
            assert np.max(np.abs(gamma(nm.kron(a, b)) - scalar * np.eye(4))) <= 1e-12

    def test_left_coset_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = nm.haar_unitary(4, rng)
            assert np.max(np.abs(gamma(u @ random_local(rng)) - gamma(u))) <= 1e-10

    def test_chi_double_coset_invariance(self):
        # chi[gamma], the reported invariant, agrees with the spectrum test
        # on exactly equivalent pairs.
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, _ = su4_normalize(nm.haar_unitary(4, rng))
            w = random_local(rng) @ u @ random_local(rng)
            assert same_double_coset(u, w)
            cu = nm.charpoly4(gamma(u)).as_array()
            cw = nm.charpoly4(gamma(w)).as_array()
            assert np.max(np.abs(cu - cw)) <= 1e-9


class TestInvariantData:
    def test_bundle_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            u, _ = su4_normalize(nm.haar_unitary(4, rng))
            data = invariant_data(u)
            assert nm.is_unitary(data.gamma, 1e-10)
            assert abs(np.prod(data.spectrum) - 1.0) <= 1e-8
            assert data.trace == pytest.approx(np.trace(data.gamma), abs=1e-12)
            # spectrum values are roots of chi
            coeffs = data.chi.as_array()
            for z in data.spectrum:
                val = sum(coeffs[k] * z**k for k in range(5))
                assert abs(val) <= 1e-7

    def test_spectrum_matches_gamma_eigenvalues(self):
        rng = np.random.default_rng(7)
        u, _ = su4_normalize(nm.haar_unitary(4, rng))
        data = invariant_data(u)
        ref = np.linalg.eigvals(data.gamma)
        assert sorted(np.angle(ref)) == pytest.approx(sorted(np.angle(data.spectrum)), abs=1e-8)


class TestCosets:
    def test_left_coset_true_on_local_right_factor(self):
        rng = np.random.default_rng(8)
        u, _ = su4_normalize(nm.haar_unitary(4, rng))
        assert same_left_coset(u, u @ random_local(rng))

    def test_left_coset_false_on_left_factor(self):
        rng = np.random.default_rng(9)
        u, _ = su4_normalize(nm.haar_unitary(4, rng))
        cnot, _ = su4_normalize(nm.CNOT01)
        assert not same_left_coset(u, cnot @ u)

    def test_double_coset_true_on_both_sides(self):
        rng = np.random.default_rng(10)
        u, _ = su4_normalize(nm.haar_unitary(4, rng))
        w = random_local(rng) @ u @ random_local(rng)
        assert same_double_coset(u, w)

    def test_double_coset_false_on_distinct_classes(self):
        cnot, _ = su4_normalize(nm.CNOT01)
        swap, _ = su4_normalize(nm.SWAP_MAT)
        assert not same_double_coset(np.eye(4), cnot)
        assert not same_double_coset(cnot, swap)

    @pytest.mark.parametrize("gap", [1e-7, 1e-5])
    def test_double_coset_accepts_what_match_local_factors_accepts(self, gap):
        # can(a, b, c) and can(a + gap/2, b, c) have gamma spectra gap apart.
        # At SPECTRUM_TOL both calls accept the 1e-7 pair and refuse the
        # 1e-5 pair, which a chi comparison with a relative term accepted.
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = dressed_canonical(0.3, 0.2, 0.1, rng)
            v = dressed_canonical(0.3 + gap / 2.0, 0.2, 0.1, rng)
            du, dv = (np.sort_complex(np.linalg.eigvals(gamma(m))) for m in (u, v))
            assert np.abs(du - dv).max() == pytest.approx(gap, rel=1e-3)
            try:
                match_local_factors(u, v)
                matched = True
            except CosetMismatch:
                matched = False
            assert same_double_coset(u, v, tol=nm.SPECTRUM_TOL) == matched == (gap < nm.SPECTRUM_TOL)

    def test_strict_left_coset_refuses_the_negated_gamma(self):
        # gamma(i u) = -gamma(u): the same physical operator, in SU(4) too.
        rng = np.random.default_rng(34)
        u, _ = su4_normalize(nm.haar_unitary(4, rng))
        assert same_left_coset(u, 1j * u)
        assert not same_left_coset(u, 1j * u, strict=True)

    def test_strict_mode_rejects_non_special(self):
        with pytest.raises(NotUnitary):
            same_left_coset(nm.CNOT01, nm.CNOT01, strict=True)
        with pytest.raises(NotUnitary):
            same_double_coset(nm.CNOT01, nm.CNOT01, strict=True)


#: The Weyl-chamber corners, edges and faces of the weyl-degenerate
#: benchmark workload.
CHAMBER_POINTS = (
    (0.0, 0.0, 0.0), (Q, 0.0, 0.0), (Q, Q, 0.0), (Q, Q, Q), (0.37, 0.0, 0.0),
    (Q, 0.41, 0.0), (0.29, 0.29, 0.0), (0.53, 0.53, 0.53), (Q, 0.22, 0.22),
    (Q, Q, 0.61), (0.62, 0.27, 0.0), (Q, 0.47, 0.19), (0.58, 0.58, 0.31),
    (0.66, 0.35, 0.35),
)


def aligned_cost(spectrum, tol):
    """The CNOT cost class of a gamma spectrum from three full
    ``_align_spectra`` searches: against (1, 1, 1, 1), against
    (i, i, -i, -i), and against its own conjugate."""
    if _align_spectra(spectrum, np.ones(4, dtype=complex))[0] <= tol:
        return 0
    if _align_spectra(spectrum, np.array([1j, 1j, -1j, -1j]))[0] <= tol:
        return 1
    if _align_spectra(spectrum, spectrum.conj(), strict=True)[0] <= tol:
        return 2
    return 3


class TestCnotCost:
    def test_class_zero(self):
        rng = np.random.default_rng(11)
        assert cnot_cost(np.eye(4)) == 0
        for _ in range(20):
            assert cnot_cost(random_local(rng)) == 0

    def test_class_one(self):
        assert cnot_cost(nm.CNOT01) == 1
        assert cnot_cost(nm.CNOT10) == 1
        assert cnot_cost(nm.CZ_MAT) == 1
        rng = np.random.default_rng(12)
        for _ in range(20):
            dressed = random_local(rng) @ nm.CNOT01 @ random_local(rng)
            assert cnot_cost(dressed) == 1

    def test_class_two(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            theta, phi = rng.uniform(0.2, 1.3, size=2)
            core = (
                nm.CNOT01
                @ nm.kron(rotation_matrix2(Axis.X, theta), rotation_matrix2(Axis.Z, phi))
                @ nm.CNOT01
            )
            assert cnot_cost(core) == 2

    def test_class_three(self):
        assert cnot_cost(nm.SWAP_MAT) == 3
        rng = np.random.default_rng(14)
        hits = sum(cnot_cost(nm.haar_unitary(4, rng)) == 3 for _ in range(100))
        assert hits >= 99

    @pytest.mark.parametrize(
        "point,expected",
        [
            # 1e-5 from the CNOT corner on the c = 0 face: 2 CNOTs, not 1.
            ((Q, 1e-5, 0.0), 2),
            # 1e-6 off that face, near the CNOT class: 3.
            ((1e-6, Q, 1e-6), 3),
            # 1e-6 from the identity corner in a generic direction, off
            # every face: 3, not 2.
            ((0.48e-6, 0.6e-6, 0.64e-6), 3),
        ],
    )
    def test_near_class_boundaries(self, point, expected):
        # A chi comparison answered 1, 1 and 2: its distance is second
        # order near a class, and its relative term widened the class-1
        # test to about 1e-3.  Each input lies 1e-6 or more from every
        # class with fewer CNOTs, far beyond DEFAULT_TOL.
        rng = np.random.default_rng(24)
        for _ in range(10):
            assert cnot_cost(dressed_canonical(*point, rng)) == expected

    def test_agrees_with_full_spectrum_alignment(self):
        # cnot_cost tests classes 0 and 1 in closed form; aligning the
        # spectrum with (1, 1, 1, 1) and with (i, i, -i, -i) by the full
        # permutation search of _align_spectra gives the same class, at
        # Weyl-chamber corners, edges and faces, eps off them, and on Haar
        # inputs; each under a seeded global phase, which flips the sign
        # of gamma on some.
        rng = np.random.default_rng(25)
        inputs = [nm.haar_unitary(4, rng) for _ in range(500)]
        for point in CHAMBER_POINTS:
            for eps in (0.0, 1e-12, 3e-9, 1e-9, 1e-8, 1e-6, 1e-4):
                for _ in range(10):
                    d = rng.standard_normal(3)
                    inputs.append(dressed_canonical(*(np.asarray(point) + eps * d / np.linalg.norm(d)), rng))
        seen = set()
        for u in inputs:
            u = u * np.exp(1j * rng.uniform(-math.pi, math.pi))
            spectrum = _magic_form(su4_normalize(u)[0]).d
            for tol in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
                expected = aligned_cost(spectrum, tol)
                assert cnot_cost(u, tol) == expected
                seen.add(expected)
        assert seen == {0, 1, 2, 3}

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(None)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_trace_screen_answers_haar_inputs_without_a_spectrum(self, monkeypatch):
        # |Im tr gamma| > 4 tol leaves only class 3, so a Haar input runs no
        # eigh; an input of class 1 or 2, whose trace is real, runs one.
        calls = self.count_eigh(monkeypatch)
        rng = np.random.default_rng(26)
        for _ in range(50):
            assert cnot_cost(nm.haar_unitary(4, rng)) == 3
        assert calls == []
        core = nm.CNOT01 @ nm.kron(rotation_matrix2(Axis.X, 0.5), rotation_matrix2(Axis.Z, 0.9)) @ nm.CNOT01
        for u, expected in ((nm.CNOT01, 1), (nm.CZ_MAT, 1), (core, 2)):
            del calls[:]
            assert cnot_cost(u) == expected
            assert len(calls) == 1

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    def test_trace_screen_holds_between_two_and_four_tol(self, tol, monkeypatch):
        # Class 2 bounds |Im tr gamma| by 2 tol, classes 0 and 1 by 4 tol:
        # can(a, b, eps) with |Im tr gamma| = 3 tol is left to the spectrum,
        # which answers as the full alignment search does.
        calls = self.count_eigh(monkeypatch)
        rng = np.random.default_rng(27)
        for a, b in ((0.5, 0.3), (0.7, 0.2), (Q, 0.4)):
            def im_trace(eps):
                return np.trace(gamma(su4_normalize(dressed_canonical(a, b, eps, rng))[0])).imag

            slope = abs(im_trace(1e-3)) / 1e-3
            for target in (2.2 * tol, 3.0 * tol, 3.8 * tol):
                u = dressed_canonical(a, b, target / slope, rng)
                im = abs(np.trace(gamma(su4_normalize(u)[0])).imag)
                assert 2.0 * tol < im < 4.0 * tol
                expected = aligned_cost(_magic_form(su4_normalize(u)[0]).d, tol)
                del calls[:]
                assert cnot_cost(u, tol) == expected
                assert calls

    def test_accepts_any_global_phase(self):
        assert cnot_cost(np.exp(0.3j) * nm.CNOT01) == 1

    def test_unitarity_checked_once_at_the_tighter_tolerance(self):
        # SU(4) normalization needs 1e-8, so tol=1e-6 cannot admit this
        # input (deviation about 8e-8); the error names cnot_cost and the
        # tolerance that applied.
        u = nm.haar_unitary(4, np.random.default_rng(15))
        with pytest.raises(NotUnitary, match=r"^cnot_cost .*tol=1e-08$"):
            cnot_cost(u + 3e-8 * np.eye(4), tol=1e-6)
        with pytest.raises(NotUnitary, match=r"^cnot_cost .*tol=1e-09$"):
            cnot_cost(u + 3e-9 * np.eye(4), tol=1e-9)
        assert cnot_cost(u + 1e-10 * np.eye(4), tol=1e-6) == 3


class TestLowerBound:
    def test_known_values(self):
        assert cnot_lower_bound(2) == 3
        assert cnot_lower_bound(3) == 14

    @pytest.mark.parametrize("n", [True, False, 0, -1, 2.0, "2", None, np.int64(0), np.bool_(True)])
    def test_rejects_what_is_not_a_positive_integer(self, n):
        # bool is an int subclass: True would be read as n = 1.
        with pytest.raises(ValueError, match="^n must be >= 1, a positive integer, got "):
            cnot_lower_bound(n)

    def test_a_numpy_integer_is_that_integer(self):
        # 4**n of an int64 n wraps at n = 32; the count is read as an int.
        for n in (1, 2, 3, 40):
            assert cnot_lower_bound(np.int64(n)) == cnot_lower_bound(n)
        assert cnot_lower_bound(np.int64(40)) == (4**40 - 3 * 40 - 1 + 3) // 4

    def test_matches_exact_rational_ceiling(self):
        for n in range(1, 9):
            exact = Fraction(4**n - 3 * n - 1, 4)
            ceil = -((-exact.numerator) // exact.denominator)
            assert cnot_lower_bound(n) == ceil

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cnot_lower_bound(0)
