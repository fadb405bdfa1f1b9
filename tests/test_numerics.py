import math

import numpy as np
import pytest

from q2synth import numerics as nm
from q2synth.errors import NotSymmetricUnitary


def random_symmetric_unitary(rng, angles=None):
    """Build q^T diag(e^{i a}) q from a random real orthogonal q."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if angles is None:
        angles = rng.uniform(-np.pi, np.pi, size=4)
    return q.T @ np.diag(np.exp(1j * np.asarray(angles))) @ q


class TestConstants:
    def test_kron_puts_qubit0_on_the_left_factor(self):
        m = nm.kron(nm.SIGMA_X, nm.I2)
        # |10> -> |00>: flipping qubit 0 moves basis index 2 to 0
        assert m[0, 2] == 1 and m[2, 0] == 1

    def test_kron_of_2x2_factors_is_np_kron_and_other_shapes_are_refused(self):
        rng = np.random.default_rng(33)
        a, b = nm.haar_unitary(2, rng), nm.haar_unitary(2, rng)
        assert np.array_equal(nm.kron(a, b), np.kron(a, b))
        for x, y in ((nm.I4, nm.I2), (nm.I2, nm.I4), (np.ones(2), nm.I2)):
            with pytest.raises(ValueError, match="2x2"):
                nm.kron(x, y)

    def test_cnot01_flips_target_when_control_set(self):
        # |10> -> |11>
        assert nm.CNOT01[3, 2] == 1 and nm.CNOT01[2, 3] == 1
        assert nm.CNOT01[0, 0] == 1 and nm.CNOT01[1, 1] == 1

    def test_cnot10_flips_qubit0_when_qubit1_set(self):
        # |01> -> |11>
        assert nm.CNOT10[3, 1] == 1 and nm.CNOT10[1, 3] == 1

    def test_magic_basis_is_unitary_and_maps_so4_to_local(self):
        e = nm.MAGIC
        assert nm.is_unitary(e)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        g = e @ q @ e.conj().T
        # conjugated rotation is a tensor product: gamma-type form is I
        p = g @ nm.SYY @ g.T @ nm.SYY
        assert np.allclose(p, np.eye(4) * p[0, 0], atol=1e-12)

    def test_syy_is_sigma_y_tensor_sigma_y(self):
        assert np.allclose(nm.SYY, nm.kron(nm.SIGMA_Y, nm.SIGMA_Y))


class TestCharPoly:
    def test_identity(self):
        # det(xI - I) = (x-1)^4
        c = nm.charpoly4(np.eye(4))
        assert np.allclose(c.as_array(), [1, -4, 6, -4, 1])

    def test_matches_numpy_poly_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mine = nm.charpoly4(m).as_array()
            ref = np.poly(m)[::-1]  # ascending order
            assert np.allclose(mine, ref, atol=1e-10 * max(1, np.abs(ref).max()))

    def test_close_to(self):
        a = nm.charpoly4(np.eye(4))
        b = nm.charpoly4(np.eye(4) * (1 + 1e-14))
        assert a.close_to(b, tol=1e-10)
        assert not a.close_to(nm.charpoly4(-np.eye(4)), tol=1e-10)
        # Absolute: coefficients up to 6 in size get no relative slack.
        assert not a.close_to(nm.charpoly4(np.exp(1e-6j) * np.eye(4)), tol=1e-10)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            nm.charpoly4(np.eye(3))


class TestDiagonalizeSymmetricUnitary:
    def test_contract_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = random_symmetric_unitary(rng)
            q, d = nm.diagonalize_symmetric_unitary(p)
            # rows of q are eigenvectors: q p q^T diagonal with entries d
            assert np.allclose(q @ p @ q.T, np.diag(d), atol=1e-9)
            assert np.allclose(q @ q.T, np.eye(4), atol=1e-12)
            assert np.isrealobj(q)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(np.abs(d), 1.0, atol=1e-10)

    def test_angles_sorted_ascending(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_symmetric_unitary(rng)
            _, d = nm.diagonalize_symmetric_unitary(p)
            ang = np.angle(d)
            assert np.all(np.diff(ang) >= -1e-12)

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(3)
        for angles in (
            [0.3, 0.3, -1.2, -1.2],
            [0.5, 0.5, 0.5, 0.5],
            [0.0, 0.0, np.pi, np.pi],
            # conjugate pairs: Re(p) is degenerate, Im(p) is not
            [-1.9, -0.7, 0.7, 1.9],
            [-0.7, -0.7, 0.7, 0.7],
        ):
            p = random_symmetric_unitary(rng, angles)
            q, d = nm.diagonalize_symmetric_unitary(p)
            assert np.allclose(q @ p @ p.conj().T @ q.T, np.eye(4), atol=1e-9)
            assert np.allclose(q @ p @ q.T, np.diag(d), atol=1e-8)
            assert sorted(np.angle(d)) == pytest.approx(sorted(angles), abs=1e-8)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_contract_on_perturbed_clusters(self, size):
        # size eigenvalues within eps of each other: nearly degenerate Re(p)
        # and Im(p).
        rng = np.random.default_rng(30 + size)
        for eps in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            for _ in range(10):
                centre = rng.uniform(-3.0, 3.0)
                angles = np.concatenate(
                    [centre + eps * rng.uniform(-1.0, 1.0, size), rng.uniform(-3.0, 3.0, 4 - size)]
                )
                p = random_symmetric_unitary(rng, angles)
                q, d = nm.diagonalize_symmetric_unitary(p)
                assert np.isrealobj(q)
                assert np.abs(q @ q.T - np.eye(4)).max() <= 1e-12
                assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
                assert np.abs(q @ p @ q.T - np.diag(d)).max() <= 1e-12
                assert np.all(np.diff(np.angle(d)) >= 0.0)
                assert np.angle(d) == pytest.approx(np.sort(angles), abs=1e-9)

    def test_near_conjugate_pairs(self):
        # e^{ia} and e^{-ia+g}: Re(p) is nearly degenerate on the pair while
        # Im(p) is not, so Re(p) alone resolves its eigenvectors only to
        # about 1e-16/g (4.2e-8 off-diagonal at g = 3e-8).
        rng = np.random.default_rng(40)
        for g in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4):
            for _ in range(20):
                a = rng.uniform(0.2, 2.9)
                angles = [a, -a + g, *rng.uniform(-3.0, 3.0, 2)]
                p = random_symmetric_unitary(rng, angles)
                q, d = nm.diagonalize_symmetric_unitary(p)
                assert np.abs(q @ q.T - np.eye(4)).max() <= 1e-12
                assert np.abs(q @ p @ q.T - np.diag(d)).max() <= 1e-12
                assert np.angle(d) == pytest.approx(np.sort(angles), abs=1e-9)

    def test_canonical_signs_and_determinant(self):
        # Rows 1-3 have their first entry of magnitude >= 1/4 positive, row 0
        # takes the sign that makes det(q) = +1, and re-canonicalizing any
        # other signs and order of the same eigenbasis gives the same result.
        rng = np.random.default_rng(41)
        inputs = [random_symmetric_unitary(rng) for _ in range(50)]
        inputs += [
            random_symmetric_unitary(rng, [a, -a, b, -b]) for a, b in rng.uniform(0.1, 3.0, (20, 2))
        ]
        for p in inputs:
            q, d = nm.diagonalize_symmetric_unitary(p)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
            for row in q[1:]:
                assert row[np.flatnonzero(np.abs(row) >= 0.25)[0]] > 0.0
            assert np.all(np.diff(np.angle(d)) >= 0.0)
            perm = rng.permutation(4)
            signs = rng.choice([-1.0, 1.0], size=4)
            q2, d2 = nm._canonical(q[perm] * signs[:, None], d[perm])
            assert np.array_equal(q2, q)
            assert np.array_equal(d2, d)

    def test_input_symmetric_only_to_1e_9(self):
        # The public call symmetrizes its input once, at its entry; the loop
        # once symmetrized each mix instead, and matched q p q^T against
        # the unsymmetrized p, whose antisymmetric part left every mixing
        # angle about 1e-9 off diagonal.  Both give the same (q, d).
        def before(p):
            best = None
            for t in nm._MIX_ANGLES:
                x = math.cos(t) * p.real + math.sin(t) * p.imag
                _, v = np.linalg.eigh((x + x.T) / 2.0)
                m = v.T @ p @ v
                off = nm._off_diagonal(m)
                if best is None or off < best[0]:
                    best = (off, v, m)
                if off <= nm.OFF_DIAGONAL_TOL:
                    break
            _, v, m = best
            return nm._canonical(v.T, m.diagonal())

        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_symmetric_unitary(rng)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = a - a.T
            p = p + 0.5e-9 * a / np.linalg.norm(a)
            assert np.linalg.norm(p - p.T) == pytest.approx(1e-9, rel=1e-6)
            q, d = nm.diagonalize_symmetric_unitary(p)
            q0, d0 = before(p)
            assert np.abs(q - q0).max() <= 1e-12
            assert np.abs(d - d0).max() <= 1e-12

    def test_magic_forms_are_symmetric_bit_for_bit(self):
        # The private diagonalizer hands each mix to eigh, which reads one
        # triangle, without symmetrizing it: mt.dot(mt.T) is symmetric bit
        # for bit (NumPy computes a product with its own transpose one
        # triangle at a time).
        rng = np.random.default_rng(43)
        for _ in range(200):
            mt = nm._polar_step(nm.MAGIC_DAG.dot(nm.haar_unitary(4, rng)).dot(nm.MAGIC))
            for m in (mt, mt * np.exp(-0.5j * rng.uniform(-3.0, 3.0) * np.array([1.0, 1.0, -1.0, -1.0]))):
                p = m.dot(m.T)
                assert np.array_equal(p, p.T)

    def test_identity_input(self):
        q, d = nm.diagonalize_symmetric_unitary(np.eye(4, dtype=complex))
        assert np.allclose(d, 1.0)
        assert np.allclose(q @ q.T, np.eye(4), atol=1e-14)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricUnitary):
            nm.diagonalize_symmetric_unitary(nm.CNOT10 @ nm.CNOT01)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotSymmetricUnitary):
            nm.diagonalize_symmetric_unitary(np.ones((4, 4)))

    def test_a_spectrum_that_ties_a_pair_at_every_fixed_angle(self):
        # Each fixed mixing angle is a pair midpoint (a + b) / 2 mod pi of
        # the angles -1, 1, 2, 3, so each mix has a double eigenvalue.  The
        # best of them left q p q^T up to 0.48 off diagonal.
        angles = np.array([-1.0, 1.0, 2.0, 3.0])
        ties = {round((a + b) / 2.0 % math.pi, 12) for i, a in enumerate(angles) for b in angles[i + 1 :]}
        assert {round(t % math.pi, 12) for t in nm._MIX_ANGLES} <= ties
        rng = np.random.default_rng(0)
        for _ in range(200):
            o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            p = o @ np.diag(np.exp(1j * angles)) @ o.T
            q, d = nm.diagonalize_symmetric_unitary(p)
            assert nm._off_diagonal(q @ p @ q.T) <= nm.OFF_DIAGONAL_TOL
            assert np.allclose(q @ p @ q.T, np.diag(d), atol=1e-12)
            assert np.allclose(np.angle(d), angles, atol=1e-12)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


class TestPolarStep:
    def test_a_residual_falls_to_its_square(self):
        # m (3I - m^dag m) / 2 is one Newton-Schulz step towards the unitary
        # polar factor: m^dag m = I + e becomes I - 3e^2/4 + e^3/4.
        rng = np.random.default_rng(47)
        for n in (2, 4):
            for eps in (1e-9, 1e-5):
                for _ in range(50):
                    u = nm.haar_unitary(n, rng)
                    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    m = u + eps * a
                    r = np.linalg.norm(m.conj().T @ m - np.eye(n), 2)
                    step = nm._polar_step(m)
                    assert np.linalg.norm(step.conj().T @ step - np.eye(n), 2) <= 0.76 * r * r + 2e-15


class TestPhaseDistance:
    def test_zero_for_global_phase(self):
        rng = np.random.default_rng(4)
        u = nm.haar_unitary(4, rng)
        assert nm.phase_distance(u, np.exp(0.7j) * u) <= 1e-13

    def test_known_distance_traceless_difference(self):
        # tr(v^dag u) = 0: every phase gives the same Frobenius distance
        assert nm.phase_distance(np.eye(4), nm.kron(nm.SIGMA_X, nm.I2)) == pytest.approx(
            np.sqrt(8.0), abs=1e-12
        )

    def test_symmetric_and_small_on_perturbation(self):
        rng = np.random.default_rng(5)
        u = nm.haar_unitary(4, rng)
        v = u * np.exp(1j * 1e-9)
        assert nm.phase_distance(u, v) <= 1e-8
        assert nm.phase_distance(u, v) == pytest.approx(nm.phase_distance(v, u), abs=1e-12)

    def test_agrees_with_the_trace_formula(self):
        def by_trace(u, v):
            t = np.trace(v.conj().T @ u)
            phi = 0.0 if t == 0 else -np.angle(t)
            return float(np.linalg.norm(np.exp(1j * phi) * u - v))

        rng = np.random.default_rng(8)
        pairs = [
            (nm.haar_unitary(n, rng), nm.haar_unitary(n, rng)) for n in (2, 4) for _ in range(50)
        ]
        pairs += [(u, np.exp(1j * rng.uniform(-3.0, 3.0)) * u) for u, _ in pairs[:20]]
        # tr(v^dag u) = 0
        pairs += [
            (np.eye(4), nm.kron(nm.SIGMA_X, nm.I2)),
            (nm.I2, nm.SIGMA_Z),
            (nm.SIGMA_X, nm.SIGMA_Y),
        ]
        for u, v in pairs:
            assert nm.phase_distance(u, v) == pytest.approx(by_trace(u, v), abs=1e-15)

    def test_resolves_tiny_distances(self):
        # must not have a sqrt cancellation noise floor near 1e-7
        rng = np.random.default_rng(6)
        u = nm.haar_unitary(4, rng)
        assert nm.phase_distance(u, u) <= 1e-13


class TestHaar:
    def test_unitary_and_deterministic(self):
        a = nm.haar_unitary(4, np.random.default_rng(42))
        b = nm.haar_unitary(4, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert nm.is_unitary(a)

    def test_different_seeds_differ(self):
        a = nm.haar_unitary(4, np.random.default_rng(1))
        b = nm.haar_unitary(4, np.random.default_rng(2))
        assert not np.allclose(a, b)

    def test_spectral_phases_cover_circle(self):
        rng = np.random.default_rng(7)
        angles = []
        for _ in range(200):
            angles.extend(np.angle(np.linalg.eigvals(nm.haar_unitary(2, rng))))
        angles = np.asarray(angles)
        assert (angles > 0).mean() == pytest.approx(0.5, abs=0.1)


class TestUnitarityChecks:
    def test_is_unitary(self):
        assert nm.is_unitary(nm.CNOT01)
        assert not nm.is_unitary(np.ones((4, 4)))

    @pytest.mark.parametrize(
        "entry", [complex(1.0, math.inf), complex(math.nan, 0.0), complex(0.0, -math.inf)]
    )
    def test_a_non_finite_entry_is_refused_before_any_product(self, entry):
        # An infinite imaginary part passed a check of the real parts alone,
        # and m^dag m then warned "invalid value encountered in matmul".
        m = np.eye(4, dtype=np.complex128)
        m[0, 0] = entry
        assert not nm.is_unitary(m)

    def test_is_special_unitary(self):
        assert not nm.is_special_unitary(nm.CNOT01)  # det -1
        assert nm.is_special_unitary(np.eye(4))


    def test_is_special_unitary_on_one_qubit(self):
        assert not nm.is_special_unitary(nm.SIGMA_X)  # det -1
        assert nm.is_special_unitary(1j * nm.SIGMA_X)
        assert not nm.is_special_unitary(np.eye(3))  # neither 2x2 nor 4x4


class TestDet4:
    def test_matches_numpy(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            m = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 2.0
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            for x in (m, q, nm.haar_unitary(4, rng)):
                assert abs(nm.det4(x) - np.linalg.det(x)) <= 1e-14

    def test_exact_on_permutations(self):
        assert nm.det4(nm.I4) == 1.0
        assert nm.det4(nm.CNOT01) == -1.0
        assert nm.det4(nm.SWAP_MAT) == -1.0
        assert nm.det4(np.diag([2.0, 3.0, 5.0, 7.0])) == 210.0
