import cmath
import collections
import functools
import itertools
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import q2synth
from q2synth import invariants, synthesis
from q2synth import numerics as nm
from q2synth.circuit import (
    _ASSOC,
    _CNOTS,
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    _entries,
    _so4_factors,
    _su2,
    _su2_entries,
    _su4_normalize,
    _zy_angles,
    circuit_to_text,
    simulate,
    su4_normalize,
)
from q2synth.cli import named_gate
from q2synth.errors import CosetMismatch, NotLocal, NotUnitary, VerificationFailed
from q2synth.invariants import _form_of, _magic_form, cnot_cost, gamma, same_double_coset
from q2synth.synthesis import (
    _CORE_PHASE,
    _CXY_CONJ,
    _CXZ_BASIS,
    _CXZ_TAGS,
    _CYZ_BASIS,
    _ZZ_MAGIC,
    DEFAULT_TOL,
    EIGEN_ORDERS,
    CYZCore,
    GateLibrary,
    SynthesisResult,
    _aligned_factors,
    _assemble,
    _candidates,
    _conjugate_pair_angles,
    _core_form,
    _cxy_core_gates,
    _cxz_rows,
    _cyz_core_gates,
    _cyz_rows,
    _local_factors,
    _local_gates,
    _result_for,
    core_params_cxz,
    core_params_cyz,
    cyz_core_circuit,
    enumerate_circuits,
    match_local_factors,
    synthesize,
)

# The benchmark's plain-NumPy reference, which never imports q2synth, and
# its workloads, for the request pools of weyl-degenerate.
import reference
import workloads
from draws import su2, su4

ROTATION_AXES = {
    GateLibrary.CYZ: {Axis.Y, Axis.Z},
    GateLibrary.CXY: {Axis.X, Axis.Y},
    GateLibrary.CXZ: {Axis.X, Axis.Z},
}


def delta(psi):
    """Delta(psi) = C[0->1] (I x diag(e^{-i psi/2}, e^{i psi/2})) C[0->1],
    the two-CNOT operator of the CXZ construction."""
    half = np.diag([np.exp(-0.5j * psi), np.exp(0.5j * psi)])
    return nm.CNOT01 @ np.kron(nm.I2, half) @ nm.CNOT01


def with_haar_locals(m, rng):
    left = nm.kron(nm.haar_unitary(2, rng), nm.haar_unitary(2, rng))
    right = nm.kron(nm.haar_unitary(2, rng), nm.haar_unitary(2, rng))
    return left @ m @ right


def near_corner_and_edge_inputs():
    """can(pi/4, 0, 0) (the CNOT corner) and can(0.37, 0, 0) (the
    identity-CNOT edge), each offset by 1e-6 in a seeded direction, between
    seeded Haar locals; 60 inputs per point."""
    rng = np.random.default_rng(3)
    for point in ((math.pi / 4, 0.0, 0.0), (0.37, 0.0, 0.0)):
        for _ in range(60):
            d = rng.standard_normal(3)
            yield with_haar_locals(reference.canonical(*(np.asarray(point) + 1e-6 * d / np.linalg.norm(d))), rng)


Q = math.pi / 4

#: The Weyl-chamber corners, edges and faces of the weyl-degenerate
#: benchmark workload, and its three points that once failed to verify.
CHAMBER_POINTS = (
    (0.0, 0.0, 0.0),
    (Q, 0.0, 0.0),
    (Q, Q, 0.0),
    (Q, Q, Q),
    (0.37, 0.0, 0.0),
    (Q, 0.41, 0.0),
    (0.29, 0.29, 0.0),
    (0.53, 0.53, 0.53),
    (Q, 0.22, 0.22),
    (Q, Q, 0.61),
    (0.62, 0.27, 0.0),
    (Q, 0.47, 0.19),
    (0.58, 0.58, 0.31),
    (0.66, 0.35, 0.35),
    (0.0, Q, 1e-9),
    (Q, Q, 1e-9),
    (1e-6, Q, 1e-6),
)


def chamber_corpus(draws=4):
    """Every chamber point offset by eps in {0, 1e-12, 1e-9, 1e-6, 1e-4} in
    a seeded direction, between ``draws`` seeded Haar locals each."""
    rng = np.random.default_rng(17)
    for point in CHAMBER_POINTS:
        for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-4):
            for _ in range(draws):
                d = rng.standard_normal(3)
                yield with_haar_locals(reference.canonical(*(np.asarray(point) + eps * d / np.linalg.norm(d))), rng)


def core_circuit(params):
    """The core circuit of a ``CYZCore`` or a CXZ pair (theta, phi)."""
    if isinstance(params, CYZCore):
        return cyz_core_circuit(params)
    theta, phi = params
    return Circuit((CNOT(0, 1), Rotation(Axis.X, 0, theta), Rotation(Axis.Z, 1, phi), CNOT(0, 1)))


def quaternion(m):
    """The unit quaternion x of an SU(2) matrix m = ``circuit._su2(*x)``,
    read from its first column (x0 - i x3, x2 - i x1)."""
    return m[0, 0].real, -m[1, 0].imag, m[1, 0].real, -m[0, 0].imag


def reference_factors(u, core, params, sigma, simulated, target=None):
    """The quaternions of the one-qubit factors that match ``core`` to
    ``u``: the input checked as match_local_factors checks it and taken to
    its magic form (or the form ``target``, if given), the core in closed
    form (``_core_form`` of ``params``, its rows in the order ``sigma(d)``
    for the spectrum d of the input's form); or, if ``simulated``,
    match_local_factors on u and the SU(4) form of the simulated core."""
    if simulated:
        return tuple(map(quaternion, match_local_factors(u, su4_normalize(simulate(core))[0])))
    u = nm.require_unitary(u, "match_local_factors", special=True)
    target = _magic_form(u) if target is None else target
    return _local_factors(target, _core_form(params, sigma(target.d)))


def cxy_gates(gates):
    """CYZ gates conjugated by H x H, which is how CXY writes them: R_z(t)
    becomes R_x(t), R_y(t) becomes R_y(-t), and each CNOT is flipped."""
    mapped = []
    for g in gates:
        if isinstance(g, CNOT):
            mapped.append(CNOT(g.target, g.control))
        elif g.axis is Axis.Z:
            mapped.append(Rotation(Axis.X, g.qubit, g.angle))
        else:
            assert g.axis is Axis.Y
            mapped.append(Rotation(Axis.Y, g.qubit, -g.angle))
    return tuple(mapped)


def reference_candidate(u, lib, candidate, simulated=False):
    """One candidate composed from the public stage functions, each with its
    own input checks: su4_normalize, core_params_*, the core circuit (for
    CXY mapped by ``cxy_gates``), its factors by ``reference_factors``, then
    ``_assemble``."""
    if lib is GateLibrary.CXY:
        u = _CXY_CONJ @ u @ _CXY_CONJ
    u_norm, _ = su4_normalize(u)
    if lib is not GateLibrary.CXZ:
        params = core_params_cyz(u_norm, candidate)
        core = cyz_core_circuit(params)
        factors = reference_factors(u_norm, core, params, lambda d: _cyz_rows(candidate), simulated)
        gates = cxy_gates(core.gates) if lib is GateLibrary.CXY else core.gates
        return _assemble((), gates, factors, lib), "%d%d%d" % candidate

    neg, swap_rs = candidate
    params = core_params_cxz(u_norm)
    theta, phi = params.theta, -params.phi if swap_rs else params.phi
    if neg:
        theta, phi = -theta, -phi
    w_core = core_circuit((theta, phi))
    u_mat, _ = su4_normalize(u_norm @ nm.CNOT01)
    m_mat, _ = su4_normalize(u_mat @ delta(params.psi))
    # The form of M = u C[0->1] Delta(psi) as synthesize builds it: Delta(psi)
    # scales the columns of the magic form of u C[0->1]
    # (test_delta_diagonal_is_the_two_cnot_product).  Near the gimbal of an
    # Euler split the emitted angles are not a stable function of their
    # factor (circuit._zy_angles), so a form that differs by rounding
    # could move them by far more than 1e-12.
    mt = nm._polar_step(nm.MAGIC_DAG @ su4_normalize(u_norm @ nm.CNOT01 * _CORE_PHASE)[0] @ nm.MAGIC)
    target = _form_of(mt * np.exp(-0.5j * params.psi * _ZZ_MAGIC))

    def sigma(d):
        return _cxz_rows(_conjugate_pair_angles(d)[2], neg, swap_rs)

    factors = reference_factors(m_mat, w_core, (theta, phi), sigma, simulated, target)
    prefix = (Rotation(Axis.Z, 1, -params.psi), CNOT(0, 1))
    tag = ("-" if neg else "") + ("sr" if swap_rs else "rs")
    return _assemble(prefix, w_core.gates, factors, lib), tag


def reference_synthesize(u, lib, tol=DEFAULT_TOL, simulated=False):
    """synthesize with every candidate composed by ``reference_candidate``."""
    u = np.asarray(u, dtype=np.complex128)
    last_error = None
    for candidate in _CXZ_TAGS if lib is GateLibrary.CXZ else EIGEN_ORDERS:
        try:
            circuit, tag = reference_candidate(u, lib, candidate, simulated)
            return _result_for(u, circuit, tag, tol)
        except (VerificationFailed, CosetMismatch) as exc:
            last_error = exc
    raise VerificationFailed("no candidate produced a verified circuit: %s" % last_error)


class TestCoreParamsCYZ:
    def test_core_lands_in_the_same_double_coset(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            u = su4(rng)
            params = core_params_cyz(u)
            core, _ = su4_normalize(simulate(cyz_core_circuit(params)))
            assert same_double_coset(u, core, tol=1e-8)

    def test_eigen_orders_give_alternative_parameter_triples(self):
        rng = np.random.default_rng(1)
        u = su4(rng)
        triples = {
            tuple(
                round(x, 9)
                for x in (p.alpha, p.beta, p.delta)
            )
            for p in (core_params_cyz(u, order) for order in EIGEN_ORDERS)
        }
        assert len(triples) > 1

    def test_rejects_non_special_unitary(self):
        with pytest.raises(NotUnitary):
            core_params_cyz(nm.CNOT01)  # det -1

    def test_core_circuit_topology(self):
        c = cyz_core_circuit(CYZCore(alpha=0.3, beta=0.4, delta=0.5))
        kinds = [type(g).__name__ for g in c.gates]
        assert kinds == ["CNOT", "Rotation", "Rotation", "CNOT", "Rotation", "CNOT"]
        assert c.cnot_count == 3
        assert c == Circuit(tuple(Rotation(g.axis, g.qubit, g.angle) if type(g) is Rotation else g for g in c))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_core_circuit_refuses_a_non_finite_angle(self, bad):
        # The public builder checks its angles; synthesis builds the same
        # gates trusted from angles that are finite by construction.
        for params in (CYZCore(bad, 0.4, 0.5), CYZCore(0.3, bad, 0.5), CYZCore(0.3, 0.4, bad)):
            with pytest.raises(ValueError, match="finite"):
                cyz_core_circuit(params)


def psi_inputs():
    """Haar inputs, and inputs at which the two terms fixing tan(psi) both
    vanish or nearly do: CNOT, SWAP and can(eps, eps, eps)."""
    rng = np.random.default_rng(2)
    inputs = [su4(rng) for _ in range(30)]
    for m in (nm.CNOT01, nm.SWAP_MAT, reference.canonical(1e-6, 1e-6, 1e-6)):
        inputs += [m] + [with_haar_locals(m, rng) for _ in range(10)]
    return inputs


class TestCoreParamsCXZ:
    def test_psi_makes_the_invariant_trace_real(self):
        for u in psi_inputs():
            u_prime, _ = su4_normalize(u @ nm.CNOT01)
            params = core_params_cxz(u_prime)
            u_mat, _ = su4_normalize(u_prime @ nm.CNOT01)
            m, _ = su4_normalize(u_mat @ delta(params.psi))
            assert abs(np.trace(gamma(m)).imag) <= 1e-9

    def test_both_psi_branches_leave_the_same_imaginary_trace(self):
        # tan fixes psi modulo pi, and core_params_cxz takes the atan2
        # branch alone: Delta(psi + pi) = -i Delta(psi) (Z x Z), with Z x Z
        # local, so the other branch leaves the same |Im tr gamma|.
        for u in psi_inputs():
            u_prime, _ = su4_normalize(u @ nm.CNOT01)
            u_mat, _ = su4_normalize(u_prime @ nm.CNOT01)
            psi = core_params_cxz(u_prime).psi
            im = [
                abs(np.trace(gamma(su4_normalize(u_mat @ delta(p))[0])).imag)
                for p in (psi, psi + math.pi)
            ]
            assert abs(im[0] - im[1]) <= 1e-12

    def test_delta_diagonal_is_the_two_cnot_product(self):
        # The two-CNOT Delta(psi) is diag(e^{-i psi s/2}) in the magic
        # basis, s = _ZZ_MAGIC, so _cxz_state scales the columns of the
        # magic form of U by it.
        assert np.abs(nm.MAGIC_DAG @ reference.ZZ @ nm.MAGIC - np.diag(_ZZ_MAGIC)).max() <= 1e-15
        for u in psi_inputs():
            psi = core_params_cxz(su4_normalize(u @ nm.CNOT01)[0]).psi
            magic = nm.MAGIC_DAG @ delta(psi) @ nm.MAGIC
            assert np.abs(magic - np.diag(np.exp(-0.5j * psi * _ZZ_MAGIC))).max() <= 1e-15

    def test_psi_is_zero_on_the_cnot_class_without_a_spectral_read(self):
        # On the CNOT class Im p and Re q of _cxz_psi vanish for every psi.
        # Where |p| = |tr gamma(u C[0->1])| >= 1e-2, which next to the
        # identity class it is not, psi = 0 and no spectrum is read.
        rng = np.random.default_rng(38)
        cnot10 = nm.SWAP_MAT @ nm.CNOT01 @ nm.SWAP_MAT
        cut = 0
        for g in (nm.CNOT01, nm.CZ_MAT, cnot10):
            for _ in range(40):
                u = su4_normalize(with_haar_locals(g, rng))[0]
                if abs(np.trace(gamma(su4_normalize(u @ nm.CNOT01)[0]))) < 1e-2:
                    continue
                cut += 1
                with mock.patch.object(synthesis, "_imag_trace", wraps=synthesis._imag_trace) as spectral:
                    assert core_params_cxz(u).psi == 0.0
                assert spectral.call_count == 0
        assert cut >= 110

    def test_psi_is_read_from_the_spectra_next_to_the_identity_class(self):
        # Next to the identity class Im p and Re q are of second order in
        # the distance, and where both are rounding psi needs the spectral
        # read: |p| stays far below the cut there, at every distance.
        rng = np.random.default_rng(39)
        entered = {}
        for dist in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
            entered[dist] = 0
            for _ in range(60):
                d = rng.standard_normal(3)
                u = su4_normalize(with_haar_locals(reference.canonical(*(dist * d / np.linalg.norm(d))), rng))[0]
                with mock.patch.object(synthesis, "_cxz_psi", wraps=synthesis._cxz_psi) as read:
                    with mock.patch.object(synthesis, "_imag_trace", wraps=synthesis._imag_trace) as spectral:
                        core_params_cxz(u)
                g0, g1, g2, g3 = (read.call_args.args[0] ** 2).sum(axis=0).tolist()
                p, q = g0 + g1 + g2 + g3, g0 + g1 - g2 - g3
                if max(abs(p), abs(q)) > nm.ZERO_TOL >= max(abs(p.imag), abs(q.real)):
                    entered[dist] += 1
                    assert abs(p) < 1e-4
                    assert spectral.call_count == 2
        assert min(entered[dist] for dist in (1e-9, 1e-8, 1e-7)) == 60
        assert entered[1e-6] > 0

    def test_psi_is_the_computational_basis_formula(self):
        # tan(psi) = Im(t1+t2+t3+t4) / Re(t1+t4-t2-t3) for the diagonal t of
        # gamma(U^T)^T, U = u_prime C[0->1], read in the computational basis.
        rng = np.random.default_rng(32)
        for _ in range(200):
            u_prime = su4(rng)
            u_mat, _ = su4_normalize(u_prime @ nm.CNOT01)
            t = np.diag(nm.SYY @ u_mat.T @ nm.SYY @ u_mat)
            psi = math.atan2(t.sum().imag, (t[0] + t[3] - t[1] - t[2]).real)
            assert abs(core_params_cxz(u_prime).psi - psi) <= 1e-12

    @staticmethod
    def assert_pair_indices(spectrum, r, s, rows):
        # The indices are those of e^{ir}, e^{-ir}, e^{is}, e^{-is}.
        assert sorted(rows) == [0, 1, 2, 3]
        expected = [cmath.exp(1j * r), cmath.exp(-1j * r), cmath.exp(1j * s), cmath.exp(-1j * s)]
        assert np.abs(spectrum[list(rows)] - expected).max() <= 1e-15

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_pair_angles_at_minus_one(self, zero):
        # -1 has principal angle pi or -pi by the sign of its imaginary zero;
        # the pair {-1, -1} is e^{+-i pi} either way, and e^{+i pi} is the
        # first of the pair, also when the zeros differ in sign.
        for other in (zero, -zero):
            spectrum = np.array([complex(-1.0, zero), complex(-1.0, other), 1.0, 1.0])
            r, s, rows = _conjugate_pair_angles(spectrum)
            assert (r, s, rows) == (math.pi, 0.0, (0, 1, 2, 3))
            self.assert_pair_indices(spectrum, r, s, rows)

    @pytest.mark.parametrize(
        "spectrum,angles,rows",
        [
            # r = pi beside a generic pair.
            ([-1.0, cmath.exp(0.3j), cmath.exp(-0.3j), -1.0], (math.pi, 0.3), (0, 3, 1, 2)),
            # r = s: the pairing's order is kept.
            ([cmath.exp(0.5j), cmath.exp(0.5j), cmath.exp(-0.5j), cmath.exp(-0.5j)], (0.5, 0.5), (0, 3, 1, 2)),
            # r = 0: every eigenvalue is 1.
            ([1.0, 1.0, 1.0, 1.0], (0.0, 0.0), (0, 3, 1, 2)),
        ],
        ids=["r=pi", "r=s", "r=0"],
    )
    def test_pair_indices_at_ties(self, spectrum, angles, rows):
        spectrum = np.array(spectrum, dtype=np.complex128)
        r, s, found = _conjugate_pair_angles(spectrum)
        assert (r, s) == pytest.approx(angles, abs=1e-15)
        assert found == rows
        self.assert_pair_indices(spectrum, r, s, found)

    def test_rejects_non_special_unitary(self):
        with pytest.raises(NotUnitary):
            core_params_cxz(nm.CNOT01)


class TestMatchLocalFactors:
    def test_reconstructs_planted_locals(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = su4(rng)
            a, b, c, d = su2(rng), su2(rng), su2(rng), su2(rng)
            u = nm.kron(a, b) @ v @ nm.kron(c, d)
            fa, fb, fc, fd = match_local_factors(u, v)
            recon = nm.kron(fa, fb) @ v @ nm.kron(fc, fd)
            assert nm.phase_distance(recon, u) <= 1e-8

    def test_handles_sign_flipped_invariant(self):
        # i*u is special-unitary with gamma negated; locals must still close
        rng = np.random.default_rng(5)
        u = su4(rng)
        fa, fb, fc, fd = match_local_factors(u, 1j * u)
        recon = nm.kron(fa, fb) @ (1j * u) @ nm.kron(fc, fd)
        assert nm.phase_distance(recon, u) <= 1e-8

    def test_factors_do_not_depend_on_the_order_or_signs_of_v_rows(self):
        # v's diagonalizer rows in another order with other signs (the rows
        # of q, q mt and d shuffled together) give bit-identical factors,
        # for a Haar v, for i v (gamma negated) and for a simulated core.
        rng = np.random.default_rng(26)
        for k in range(60):
            u = su4(rng)
            if k % 3 == 2:
                v = su4_normalize(simulate(cyz_core_circuit(core_params_cyz(u))))[0]
            else:
                v = nm.kron(su2(rng), su2(rng)) @ u @ nm.kron(su2(rng), su2(rng))
                v = 1j * v if k % 3 else v
            expected = match_local_factors(u, v)
            fu, fv = _magic_form(u), _magic_form(v)
            for _ in range(4):
                perm = rng.permutation(4)
                signs = rng.choice([-1.0, 1.0], size=4)[:, None]
                moved = fv._replace(q=fv.q[perm] * signs, d=fv.d[perm], qmt=fv.qmt[perm] * signs)
                for got, want in zip(_aligned_factors(fu, moved), expected):
                    assert np.array_equal(_su2(*got), want)

    def test_identity_pair(self):
        fa, fb, fc, fd = match_local_factors(np.eye(4), np.eye(4))
        recon = nm.kron(fa, fb) @ nm.kron(fc, fd)
        assert nm.phase_distance(recon, np.eye(4)) <= 1e-10

    def test_rejects_different_cosets(self):
        cnot, _ = su4_normalize(nm.CNOT01)
        with pytest.raises(CosetMismatch):
            match_local_factors(np.eye(4), cnot)

    def test_rejects_non_special_inputs(self):
        with pytest.raises(NotUnitary):
            match_local_factors(nm.CNOT01, nm.CNOT01)


class TestSynthesize:
    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_random_unitaries(self, lib):
        rng = np.random.default_rng(6)
        for _ in range(25):
            u = nm.haar_unitary(4, rng)
            result = synthesize(u, lib)
            assert result.residual <= 1e-8
            assert result.cnot_count == 3
            if lib is GateLibrary.BASIC:
                assert result.basic_count <= 10
            else:
                assert result.one_param_count <= 15
            assert nm.phase_distance(simulate(result.circuit), u) == pytest.approx(
                result.residual, abs=1e-12
            )

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_library_conformance(self, lib):
        # The contract of _assemble, on chamber inputs and named gates, whose
        # cores and factors have zero angles and identity factors: every
        # rotation angle wrapped and nonzero, every gate in the library.
        inputs = [nm.haar_unitary(4, np.random.default_rng(7))] + list(chamber_corpus())
        inputs += [nm.I4, nm.CNOT01, nm.SWAP_MAT, nm.CZ_MAT]
        for u in inputs:
            for g in synthesize(u, lib).circuit.gates:
                if isinstance(g, Rotation):
                    assert -math.pi < g.angle <= math.pi
                    assert abs(g.angle) > nm.ZERO_TOL
                    assert lib is GateLibrary.BASIC or g.axis in ROTATION_AXES[lib]
                elif isinstance(g, Generic1Q):
                    assert lib is GateLibrary.BASIC
                    assert not nm._is_identity_up_to_phase(_entries(g))
                else:
                    assert isinstance(g, CNOT)

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_assemble_drops_what_is_within_zero_tol(self, lib):
        # Identity factors, of either sign or a rounding-level phase away,
        # and rotations by multiples of 2 pi or by rounding-level angles.
        # The factors are unit quaternions: +-1 for +-I, and near for
        # diag(e^{0.4e-12 i}, e^{-0.4e-12 i}).
        near = (math.cos(0.4e-12), 0.0, 0.0, -math.sin(0.4e-12))
        core = (
            CNOT(1, 0),
            Rotation(Axis.Z, 0, 2 * math.pi),
            Rotation(Axis.Y, 1, -3 * math.pi),
            CNOT(0, 1),
            Rotation(Axis.Y, 1, 0.5e-12),
            CNOT(1, 0),
        )
        one = (1.0, 0.0, 0.0, 0.0)
        circuit = _assemble((), core, (one, (-1.0, 0.0, 0.0, 0.0), near, one), lib)
        assert len(circuit) == 4 and circuit.cnot_count == 3
        rotations = [(g.axis, g.qubit, g.angle) for g in circuit.gates if isinstance(g, Rotation)]
        assert rotations == [(Axis.Y, 1, math.pi)]

    @pytest.mark.parametrize(
        "name,matrix",
        [
            ("identity", np.eye(4, dtype=complex)),
            ("cnot", None),
            ("swap", None),
            ("cz", None),
        ],
    )
    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_special_inputs(self, name, matrix, lib):
        table = {
            "identity": np.eye(4, dtype=complex),
            "cnot": nm.CNOT01,
            "swap": nm.SWAP_MAT,
            "cz": nm.CZ_MAT,
        }
        u = table[name]
        result = synthesize(u, lib)
        assert result.residual <= 1e-8
        assert result.cnot_count == 3

    def test_accepts_library_by_value(self):
        rng = np.random.default_rng(8)
        u = nm.haar_unitary(4, rng)
        result = synthesize(u, "cxz")
        assert result.residual <= 1e-8

    def test_accepts_global_phase(self):
        rng = np.random.default_rng(9)
        u = np.exp(0.41j) * nm.haar_unitary(4, rng)
        assert synthesize(u, GateLibrary.CYZ).residual <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            synthesize(np.ones((4, 4)), GateLibrary.CYZ)

    def test_unreachable_tolerance_raises(self):
        rng = np.random.default_rng(10)
        u = nm.haar_unitary(4, rng)
        with pytest.raises(VerificationFailed):
            synthesize(u, GateLibrary.CYZ, tol=1e-18)

    def test_near_weyl_corner_and_edge(self):
        # Near-degenerate gamma spectra, and for cxz a psi whose tan is
        # nearly 0/0 at the CNOT corner: every call must verify.
        for u in near_corner_and_edge_inputs():
            for lib in GateLibrary:
                result = synthesize(u, lib)
                assert result.circuit.cnot_count == 3
                assert nm.phase_distance(simulate(result.circuit), u) <= 1e-8

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_chamber_corpus(self, lib):
        for u in chamber_corpus():
            result = synthesize(u, lib)
            assert result.circuit.cnot_count == 3
            assert nm.phase_distance(simulate(result.circuit), u) <= 1e-8

    @pytest.mark.parametrize("lib", [GateLibrary.CYZ, GateLibrary.CXY, GateLibrary.CXZ])
    def test_local_gates_rebuild_their_factor(self, lib):
        # Rz(psi) R_inner(phi) Rz(theta) in circuit order is +-su2(x), inner
        # X in cxz and Y in cyz, also at the gimbals, where psi is 0.  cxy
        # emits them already mapped by conjugation with H: Rx(psi) Ry(-phi)
        # Rx(theta) is +-H su2(x) H.
        outer, inner = (Axis.Z, Axis.X) if lib is GateLibrary.CXZ else (Axis.Z, Axis.Y)
        frame = nm.I2
        if lib is GateLibrary.CXY:
            outer, frame = Axis.X, nm.HADAMARD
        rng = np.random.default_rng(36)
        quaternions = [tuple(v / np.linalg.norm(v)) for v in rng.standard_normal((40, 4))]
        quaternions += [(0.6, 0.0, 0.0, 0.8), (0.0, 0.8, -0.6, 0.0), (1.0, 0.0, 0.0, 0.0)]
        for x in quaternions:
            first, middle, last = _local_gates(x, 1, lib)
            assert [(g.axis, g.qubit) for g in (first, middle, last)] == [(outer, 1), (inner, 1), (outer, 1)]
            m = reference.product((first, middle, last))
            assert reference.phase_distance(m, nm.kron(nm.I2, frame @ _su2(*x) @ frame)) <= 1e-14
            if min(math.hypot(x[0], x[3]), math.hypot(x[1], x[2])) == 0.0:
                # cxy's middle angle is -phi, phi in [0, pi].
                assert (-middle.angle if lib is GateLibrary.CXY else middle.angle) in (0.0, math.pi)

    def test_cxy_gates_are_the_cyz_gates_conjugated_by_h(self):
        # cxy builds its core and local gates in its own axes; each is
        # exactly the cyz one mapped by cxy_gates, whose rule is checked
        # here against the matrices: H x H (cyz) H x H up to phase.
        rng = np.random.default_rng(50)
        quaternions = [tuple(v / np.linalg.norm(v)) for v in rng.standard_normal((40, 4))]
        quaternions += [(0.6, 0.0, 0.0, 0.8), (0.0, 0.8, -0.6, 0.0), (1.0, 0.0, 0.0, 0.0)]
        cores = [CYZCore(*angles) for angles in itertools.product(CORE_ANGLES[::3], repeat=3)]
        cores += [CYZCore(*rng.uniform(-2 * math.pi, 2 * math.pi, 3).tolist()) for _ in range(20)]
        pairs = [(_cxy_core_gates(p), _cyz_core_gates(p)) for p in cores]
        pairs += [(_local_gates(x, q, GateLibrary.CXY), _local_gates(x, q, GateLibrary.CYZ))
                  for x in quaternions for q in (0, 1)]
        for cxy, cyz in pairs:
            assert cxy == cxy_gates(cyz)
            conjugated = _CXY_CONJ @ reference.product(cyz) @ _CXY_CONJ
            assert reference.phase_distance(reference.product(cxy), conjugated) <= 1e-14

    def test_cxz_angles_are_the_zy_angles_turned_a_quarter(self):
        # Ry(phi) = Rz(pi/2) Rx(phi) Rz(-pi/2): away from the gimbal, the
        # (Z, X) angles of a factor are its (Z, Y) angles with theta + pi/2
        # and psi - pi/2, as cxz once emitted them.
        rng = np.random.default_rng(37)
        for v in rng.standard_normal((100, 4)):
            x = tuple(v / np.linalg.norm(v))
            theta, phi, psi = _zy_angles(x)
            first, middle, last = _local_gates(x, 0, GateLibrary.CXZ)
            assert middle.angle == pytest.approx(phi, abs=1e-14)
            for got, want in ((last.angle, theta + math.pi / 2.0), (first.angle, psi - math.pi / 2.0)):
                assert abs(cmath.exp(1j * got) - cmath.exp(1j * want)) <= 1e-14

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_factors_reach_the_gates_as_quaternions(self, lib, monkeypatch):
        # _so4_factors' quaternions go to the Euler reader as they are: only
        # basic builds SU(2) entries, one per Generic1Q factor, and no
        # library builds an SU(2) matrix.
        built = {"matrix": 0, "entries": 0}

        def counted(kind, fn):
            def call(*x):
                built[kind] += 1
                return fn(*x)

            return call

        for module in ("q2synth.circuit", "q2synth.synthesis"):
            monkeypatch.setattr(module + "._su2", counted("matrix", _su2))
            monkeypatch.setattr(module + "._su2_entries", counted("entries", _su2_entries))
        rng = np.random.default_rng(39)
        for _ in range(5):
            built.update(matrix=0, entries=0)
            synthesize(nm.haar_unitary(4, rng), lib)
            assert built == {"matrix": 0, "entries": 4 if lib is GateLibrary.BASIC else 0}

    def test_a_later_cxz_candidate_answers_where_the_first_is_refused(self):
        # The retry loop carries real cases: next to three Weyl-chamber
        # corners, eps = 1e-12 with Haar locals, the first cxz candidate
        # misses tol 3e-13 on 61 of these 210 inputs, and a later one
        # verifies on 49 of them.
        rng = np.random.default_rng(35)
        rescued = 0
        for point in ((Q, Q, 0.0), (Q, Q, Q), (Q, 0.0, 0.0)):
            for _ in range(70):
                d = rng.standard_normal(3)
                u = with_haar_locals(reference.canonical(*(np.asarray(point) + 1e-12 * d / np.linalg.norm(d))), rng)
                first = next(synthesis._outcomes(u, GateLibrary.CXZ, 3e-13, "synthesize"))
                if not isinstance(first, Exception):
                    continue
                try:
                    result = synthesize(u, GateLibrary.CXZ, tol=3e-13)
                except VerificationFailed:
                    continue
                assert result.eigen_order != "rs"
                assert reference.phase_distance(reference.product(result.circuit.gates), u) <= 1e-12
                rescued += 1
        assert rescued >= 1

    def test_cxz_verifies_to_rounding_next_to_the_identity_class(self):
        # There the two sums that fix psi are of second order in the
        # distance, here 1e-8, and drown in rounding; a psi read from them
        # left residuals up to about that distance.
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = rng.standard_normal(3)
            u = with_haar_locals(reference.canonical(*(1e-8 * d / np.linalg.norm(d))), rng)
            assert synthesize(u, GateLibrary.CXZ, tol=1e-13).residual <= 1e-13

    def test_cxz_named_gates_stay_as_short(self):
        # psi is 0 where both of its sums vanish, and the target's
        # determinant carries no rounding phase, so the degenerate spectra
        # of these gates tie as they did when psi was read in the
        # computational basis: the cxz circuits keep those gate counts.
        for name, count in (("cz", 15), ("swap", 12), ("magic", 14), ("qft2", 15)):
            assert len(synthesize(named_gate(name), GateLibrary.CXZ).circuit.gates) <= count

    def test_result_metadata(self):
        rng = np.random.default_rng(11)
        u = nm.haar_unitary(4, rng)
        result = synthesize(u, GateLibrary.CYZ)
        assert result.eigen_order
        assert result.cnot_count == result.circuit.cnot_count
        assert result.one_param_count == result.circuit.one_param_count
        assert result.basic_count == result.circuit.basic_count


class TestSinglePass:
    """synthesize validates its input once and computes the per-input state
    once; the result is the one the public stage functions compose."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_unitarity_checks_per_call(self, lib, monkeypatch):
        # 16 per call (21 for cxz) when every stage re-checked its inputs.
        calls = self.count_calls(monkeypatch, nm, "is_unitary")
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = nm.haar_unitary(4, rng)
            calls.clear()
            synthesize(u, lib)
            assert len(calls) <= 9

    def test_input_diagonalized_once_when_every_candidate_fails(self, monkeypatch):
        # All 24 orderings fail at tol=1e-18; the input is diagonalized once
        # and every core's diagonalizer is read from its angles, with no
        # eigh.  An eigh per core made 25; rebuilding the input side per
        # candidate made 72.
        calls = self.count_calls(monkeypatch, np.linalg, "eigh")
        u = nm.haar_unitary(4, np.random.default_rng(10))
        with pytest.raises(VerificationFailed):
            synthesize(u, GateLibrary.CYZ, tol=1e-18)
        assert len(calls) <= 1

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_one_eigh_per_haar_call(self, lib, monkeypatch):
        # 2 per call (3 for cxz) when each core ran its own eigh and the cxz
        # target started at the mixing angle t = 0.
        calls = self.count_calls(monkeypatch, np.linalg, "eigh")
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = nm.haar_unitary(4, rng)
            calls.clear()
            synthesize(u, lib)
            assert len(calls) == 1

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_validated_rotations_per_haar_call(self, lib, monkeypatch):
        # Every emitted rotation is built trusted, once, the cyz core's
        # too.  16 per call when each was validated, some twice; 3 when the
        # candidates took their core from the public cyz_core_circuit.
        calls = self.count_calls(monkeypatch, Rotation, "__post_init__")
        rng = np.random.default_rng(38)
        for _ in range(20):
            u = nm.haar_unitary(4, rng)
            calls.clear()
            synthesize(u, lib)
            assert len(calls) == 0

    #: The most calls into q2synth's own functions (generator resumptions
    #: included) that one synthesize call of each library may make on the
    #: Haar inputs of ``test_python_calls_per_haar_call``: set at the most
    #: the code made there (61, 62, 77 and 59) plus 5; the one sign rule
    #: and the one gate count made it 63, 64, 79 and 61.  Before simulate read
    #: its gates in one pass, with no call per gate, and cxy built its core
    #: and local gates in its own axes, the most was 113, 140, 128 and 77;
    #: before the scalar passes of the canonical form, the SO(4) split and
    #: the angle wrap, and the trusted cyz core, 204, 231, 208 and 156.
    CALL_BUDGET = {GateLibrary.CYZ: 66, GateLibrary.CXY: 67, GateLibrary.CXZ: 82, GateLibrary.BASIC: 64}

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_python_calls_per_haar_call(self, lib):
        # Only frames of code under the package's own directory count, so
        # the budget does not move with NumPy's Python layer.
        root = str(Path(q2synth.__file__).resolve().parent)
        rng = np.random.default_rng(44)
        inputs = [nm.haar_unitary(4, rng) for _ in range(20)]
        counts = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                counts[-1] += 1

        previous = sys.getprofile()
        try:
            for u in inputs:
                counts.append(0)
                sys.setprofile(count)
                synthesize(u, lib)
                sys.setprofile(previous)
        finally:
            sys.setprofile(previous)
        assert 0 < max(counts) <= self.CALL_BUDGET[lib]

    @pytest.mark.parametrize("order", [(0.0, 1.0, 2.0, 0.5, 2.5), (2.5, 0.5, 2.0, 1.0, 0.0)])
    def test_mixing_angle_order_changes_no_output(self, order, monkeypatch):
        # The 3-CNOT core's determinant is exactly -1.  When its SU(4) form
        # took arg det = +-pi by the sign of a rounding-level imaginary part,
        # the order of the mixing angles (which moves the input's spectrum by
        # about 1e-16) changed the local gates of inputs 80 and 208 (first
        # order) or 208 and 298 (second order).
        rng = np.random.default_rng(16)
        inputs = [nm.haar_unitary(4, rng) for _ in range(300)]
        before = [synthesize(u, GateLibrary.CYZ) for u in inputs]
        monkeypatch.setattr(nm, "_MIX_ANGLES", order)
        for u, expected in zip(inputs, before):
            result = synthesize(u, GateLibrary.CYZ)
            assert result.eigen_order == expected.eigen_order
            assert len(result.circuit.gates) == len(expected.circuit.gates)
            for g, h in zip(result.circuit.gates, expected.circuit.gates):
                assert type(g) is type(h)
                if isinstance(g, Rotation):
                    assert (g.axis, g.qubit) == (h.axis, h.qubit)
                    assert g.angle == pytest.approx(h.angle, abs=1e-9)

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_core_side_runs_no_simulate_polar_step_or_diagonalizer(self, lib, monkeypatch):
        # A Haar call verifies its first candidate.  The one simulate is the
        # verifying one, and the input side alone takes the polar step and
        # runs the diagonalizer.  Each core's own simulate and magic form
        # made 2 simulate calls and 2 of each of the others; cxz took a
        # second polar step for psi.
        counts = {
            name: self.count_calls(monkeypatch, owner, name)
            for owner, name in (
                (synthesis, "simulate"),
                (nm, "_diagonalize_symmetric_unitary"),
                (nm, "_polar_step"),
            )
        }
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = nm.haar_unitary(4, rng)
            for calls in counts.values():
                calls.clear()
            result = synthesize(u, lib)
            assert result.eigen_order == ("rs" if lib is GateLibrary.CXZ else "012")
            assert {name: len(calls) for name, calls in counts.items()} == {
                "simulate": 1,
                "_diagonalize_symmetric_unitary": 1,
                "_polar_step": 1,
            }

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_no_spectrum_alignment_on_the_candidate_path(self, lib, monkeypatch):
        # Each candidate core comes in its target's row order, so neither a
        # Haar call nor a call whose every candidate fails (tol=1e-18)
        # aligns spectra; one alignment per candidate ran before.
        counts = [self.count_calls(monkeypatch, owner, "_align_spectra") for owner in (invariants, synthesis)]
        rng = np.random.default_rng(28)
        for _ in range(10):
            synthesize(nm.haar_unitary(4, rng), lib)
        with pytest.raises(VerificationFailed):
            synthesize(nm.haar_unitary(4, rng), lib, tol=1e-18)
        assert counts == [[], []]

    def test_one_simulate_per_candidate_when_every_candidate_fails(self, monkeypatch):
        # All 24 orderings fail at tol=1e-18: 24 verifying simulate calls,
        # where simulating each core too made 48.
        calls = self.count_calls(monkeypatch, synthesis, "simulate")
        u = nm.haar_unitary(4, np.random.default_rng(10))
        with pytest.raises(VerificationFailed):
            synthesize(u, GateLibrary.CYZ, tol=1e-18)
        assert len(calls) == 24

    @staticmethod
    def assert_same_synthesis(inputs, lib, simulated=False):
        refused = 0
        for u in inputs:
            try:
                expected = reference_synthesize(u, lib, simulated=simulated)
            except VerificationFailed:
                refused += 1
                with pytest.raises(VerificationFailed):
                    synthesize(u, lib)
                continue
            result = synthesize(u, lib)
            assert result.eigen_order == expected.eigen_order
            assert len(result.circuit.gates) == len(expected.circuit.gates)
            for g, h in zip(result.circuit.gates, expected.circuit.gates):
                assert type(g) is type(h)
                if isinstance(g, Rotation):
                    assert (g.axis, g.qubit) == (h.axis, h.qubit)
                    assert g.angle == pytest.approx(h.angle, abs=1e-12)
                elif isinstance(g, Generic1Q):
                    assert g.qubit == h.qubit
                    assert np.allclose(g.matrix, h.matrix, rtol=0.0, atol=1e-12)
                else:
                    assert g == h
        assert refused < len(inputs)

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_same_circuits_as_public_stage_composition(self, lib):
        rng = np.random.default_rng(16)
        inputs = [nm.haar_unitary(4, rng) for _ in range(20)]
        inputs += list(near_corner_and_edge_inputs())
        self.assert_same_synthesis(inputs, lib)

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_same_circuits_as_simulated_core_composition(self, lib):
        # The composition with each core simulated, normalized into SU(4)
        # and matched by match_local_factors, on the Haar inputs.
        rng = np.random.default_rng(16)
        self.assert_same_synthesis([nm.haar_unitary(4, rng) for _ in range(20)], lib, simulated=True)


def tied_corner_inputs():
    """The identity, CNOT, (pi/4, pi/4, 0) and SWAP corners of the Weyl
    chamber, whose gamma spectra tie, each offset by eps in {0, 1e-16,
    1e-12} in a seeded direction, bare and between 3 seeded Haar locals;
    and the magic basis change E itself.  ``tests/golden/synthesis.json``
    pins their outputs."""
    rng = np.random.default_rng(45)
    inputs = [nm.MAGIC.copy()]
    for point in ((0.0, 0.0, 0.0), (Q, 0.0, 0.0), (Q, Q, 0.0), (Q, Q, Q)):
        for eps in (0.0, 1e-16, 1e-12):
            d = rng.standard_normal(3)
            m = reference.canonical(*(np.asarray(point) + eps * d / np.linalg.norm(d)))
            inputs += [m] + [with_haar_locals(m, rng) for _ in range(3)]
    return inputs


class TestSO4Split:
    """``_so4_factors`` splits E o E^dag into su2(x) x su2(y) in closed
    form, and refuses an o it misses by more than LOCAL_TOL."""

    def test_factors_rebuild_the_input(self):
        # Haar locals, and x = (1/2, 1/2, 1/2, 1/2): every row of the
        # associate matrix x y^T has norm 1/2, exactly for y on an axis.
        rng = np.random.default_rng(48)
        half = [0.5, 0.5, 0.5, 0.5]
        pairs = [(quaternion(su2(rng)), quaternion(su2(rng))) for _ in range(30)]
        pairs += [(half, list(e)) for e in np.eye(4)] + [(half, quaternion(su2(rng))) for _ in range(8)]
        ties = 0
        for x, y in pairs:
            o = (nm.MAGIC_DAG @ nm.kron(_su2(*x), _su2(*y)) @ nm.MAGIC).real
            x2, y2 = _so4_factors(o)
            rebuilt = nm.MAGIC_DAG @ nm.kron(_su2(*x2), _su2(*y2)) @ nm.MAGIC
            assert np.abs(rebuilt - o).max() <= 2e-15
            assoc = _ASSOC.dot(o.ravel()).tolist()
            ties += len({math.hypot(*assoc[k:k + 4]) for k in range(0, 16, 4)}) == 1
        assert ties >= 4

    def test_refuses_what_is_not_local(self):
        rng = np.random.default_rng(49)
        o, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        o[0] *= np.sign(np.linalg.det(o))
        reflection = np.diag([-1.0, 1.0, 1.0, 1.0])
        refused = [reflection, reflection @ o, 2.0 * np.eye(4), o + 1e-6 * rng.standard_normal((4, 4))]
        refused += [rng.standard_normal((4, 4)) for _ in range(5)]
        for m in refused:
            with pytest.raises(NotLocal, match="^best tensor factorization misses by "):
                _so4_factors(m)


def emission_corpus():
    """300 seeded Haar inputs, ``chamber_corpus()``,
    ``near_corner_and_edge_inputs()``, ``psi_inputs()`` and the request
    pools of the weyl-degenerate benchmark at seeds 1-3: 2,137 inputs."""
    rng = np.random.default_rng(39)
    inputs = [nm.haar_unitary(4, rng) for _ in range(300)]
    inputs += list(chamber_corpus()) + list(near_corner_and_edge_inputs()) + psi_inputs()
    for seed in (1, 2, 3):
        inputs += [request[0].args[0] for request in workloads.WeylDegenerate(q2synth, seed).pool]
    return inputs


@functools.lru_cache(maxsize=None)
def emitted_results():
    """(library, ``synthesize``'s result) for every input of
    ``emission_corpus()`` in every library: 8,548 calls, made once for all
    the tests that read them."""
    return tuple((lib, synthesize(u, lib)) for u in emission_corpus() for lib in GateLibrary)


class TestTrustedGates:
    """Synthesis builds its gates without their ``__post_init__`` checks,
    from values it has already checked; each emitted gate must still be one
    that the checked constructor accepts and the library allows."""

    def test_every_emitted_gate_is_a_valid_gate_of_its_library(self):
        results = emitted_results()
        assert len(results) == 4 * 2137
        for lib, result in results:
            circuit = result.circuit
            for g in circuit.gates:
                if type(g) is Rotation:
                    assert g == Rotation(g.axis, g.qubit, g.angle)
                    assert -math.pi < g.angle <= math.pi
                    assert abs(g.angle) > nm.ZERO_TOL
                    # basic's rotations are those of its cyz core.
                    assert g.axis in ROTATION_AXES.get(lib, ROTATION_AXES[GateLibrary.CYZ])
                elif type(g) is CNOT:
                    assert g is _CNOTS[0] or g is _CNOTS[1]
                else:
                    assert type(g) is Generic1Q and lib is GateLibrary.BASIC
                    assert g == Generic1Q(g.qubit, g.matrix)
            counts = (result.cnot_count, result.one_param_count, result.basic_count)
            assert counts == (circuit.cnot_count, circuit.one_param_count, circuit.basic_count)


def magic_symmetric_form(m):
    mt = nm.MAGIC_DAG @ su4_normalize(m)[0] @ nm.MAGIC
    return mt @ mt.T


#: Core angles at the points where the core's spectrum clusters or crosses
#: the branch cut, close to them, and generic.
CORE_ANGLES = (
    0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
    1e-9, math.pi / 2 - 1e-9, math.pi - 1e-12, 0.37, -2.1,
)


class TestCoreBases:
    """Each constant basis of ``_core_form`` diagonalizes its core's
    symmetric form at every angle."""

    def test_cyz_core(self):
        q = _CYZ_BASIS
        rng = np.random.default_rng(18)
        triples = list(itertools.product(CORE_ANGLES, repeat=3))
        triples += [tuple(rng.uniform(-math.pi, math.pi, 3)) for _ in range(200)]
        for alpha, beta, delta in triples:
            p = magic_symmetric_form(simulate(cyz_core_circuit(CYZCore(alpha, beta, delta))))
            assert nm._off_diagonal(q @ p @ q.T) <= 1e-13

    def test_cxz_core(self):
        q = _CXZ_BASIS
        rng = np.random.default_rng(19)
        pairs = list(itertools.product(CORE_ANGLES, repeat=2))
        pairs += [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(200)]
        for theta, phi in pairs:
            p = magic_symmetric_form(simulate(core_circuit((theta, phi))))
            assert nm._off_diagonal(q @ p @ q.T) <= 1e-13


def assert_core_form_matches_simulation(params, sigma):
    """``_core_form(params, sigma)`` against the simulated core, with q the
    rows of the core's constant basis in the order sigma; see
    ``assert_form_of``."""
    form = _core_form(params, sigma)
    basis = _CYZ_BASIS if isinstance(params, CYZCore) else _CXZ_BASIS
    assert np.array_equal(np.abs(form.q), np.abs(basis[list(sigma)]))
    assert_form_of(core_circuit(params).gates, form)


def assert_form_of(core, form, frame=nm.I4):
    """A core form against the magic form mt of the simulated ``core``
    gates, conjugated by ``frame``, in SU(4): q real orthogonal with det +1
    and in the signs of ``numerics._row_signs``, diagonalizing the simulated
    mt mt^T to OFF_DIAGONAL_TOL; d that diagonal; and q^T qmt = mt to 1e-14."""
    m = frame @ simulate(Circuit(core)) @ frame
    mt = nm.MAGIC_DAG @ su4_normalize(m)[0] @ nm.MAGIC
    assert np.abs(form.q.T @ form.qmt - mt).max() <= 1e-14
    assert np.abs(form.q @ form.q.T - np.eye(4)).max() <= 1e-15
    assert np.linalg.det(form.q) > 0.0
    assert nm._row_signs(form.q.tolist()) == [1.0, 1.0, 1.0, 1.0]
    m = form.q @ (mt @ mt.T) @ form.q.T
    assert nm._off_diagonal(m) <= nm.OFF_DIAGONAL_TOL
    assert np.abs(m.diagonal() - form.d).max() <= 1e-14


#: Largest row gap |d_target - sign d_core| of a candidate core on the
#: inputs of ``TestCoreForm``: rounding alone for the cyz core (2.2e-15
#: measured), and for the cxz core also the conditioning of psi next to the
#: identity class (3.8e-11 measured, at eps = 1e-6).
ROW_GAP_CYZ = 1e-14
ROW_GAP_CXZ = 1e-9

#: Every row order of a core form, cycled through by the tests of
#: ``_core_form``.
ROW_ORDERS = [list(p) for p in itertools.permutations(range(4))]


class TestCoreForm:
    """``_core_form`` reads each core's magic form, diagonalizer and spectrum
    from its angles, in a given row order; they must be those of the
    simulated core, and the row order must be the one in which the core's
    eigenvalues answer its target's."""

    def test_cyz_core(self):
        rng = np.random.default_rng(24)
        triples = list(itertools.product(CORE_ANGLES, repeat=3))
        triples += [tuple(rng.uniform(-math.pi, math.pi, 3)) for _ in range(200)]
        for n, (alpha, beta, delta) in enumerate(triples):
            assert_core_form_matches_simulation(CYZCore(alpha, beta, delta), ROW_ORDERS[n % 24])

    def test_cxz_core(self):
        rng = np.random.default_rng(25)
        pairs = list(itertools.product(CORE_ANGLES, repeat=2))
        pairs += [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(200)]
        for n, (theta, phi) in enumerate(pairs):
            assert_core_form_matches_simulation((theta, phi), ROW_ORDERS[n % 24])

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_every_candidate_core_answers_its_target_row_by_row(self, lib):
        # Every candidate of a call, on Haar and chamber inputs: the core's
        # rows (q_v) diagonalize the simulated core's form, and
        # d_target = sign d_core row by row, with sign -1 for the cyz core
        # and +1 for the cxz core.  cxy's core comes in cxy's gates, and its
        # form, like its target's, is read in the frame of H x H.
        rng = np.random.default_rng(27)
        inputs = [nm.haar_unitary(4, rng) for _ in range(10)] + list(chamber_corpus(draws=1))
        frame = _CXY_CONJ if lib is GateLibrary.CXY else nm.I4
        for u in inputs:
            tags = []
            for target, _, core, form, tag in _candidates(u, lib):
                assert_form_of(core, form, frame)
                if lib is GateLibrary.CXZ:
                    assert np.abs(target.d - form.d).max() <= ROW_GAP_CXZ
                else:
                    assert np.abs(target.d + form.d).max() <= ROW_GAP_CYZ
                tags.append(tag)
            if lib is GateLibrary.CXZ:
                assert tags == list(_CXZ_TAGS.values())
            else:
                assert tags == ["%d%d%d" % order for order in EIGEN_ORDERS]

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_candidates_are_built_only_when_tried(self, lib):
        # A Haar input verifies on its first candidate, so a call builds and
        # matches one core; at tol 1e-18 none verifies, and every candidate
        # is built and matched once.
        u = nm.haar_unitary(4, np.random.default_rng(31))

        def tried(tol):
            """(whether the call verified, the cores it built and matched)."""
            with mock.patch.object(synthesis, "_local_factors", wraps=synthesis._local_factors) as match:
                with mock.patch.object(synthesis, "_core_form", wraps=synthesis._core_form) as form:
                    try:
                        verified = synthesize(u, lib, tol) is not None
                    except VerificationFailed:
                        verified = False
            assert form.call_count == match.call_count
            return verified, form.call_count

        every = len(_CXZ_TAGS) if lib is GateLibrary.CXZ else len(EIGEN_ORDERS)
        assert tried(DEFAULT_TOL) == (True, 1)
        assert tried(1e-18) == (False, every)


class TestCorePhase:
    def test_core_phase_is_su4_normalize_bit_for_bit(self):
        # The CYZ core's determinant is exactly -1, so the constant
        # exp(-i pi / 4) takes it to the SU(4) form su4_normalize gives.
        rng = np.random.default_rng(20)
        triples = list(itertools.product(CORE_ANGLES, repeat=3))
        triples += [tuple(rng.uniform(-math.pi, math.pi, 3)) for _ in range(200)]
        for alpha, beta, delta in triples:
            core = simulate(cyz_core_circuit(CYZCore(alpha, beta, delta)))
            assert np.array_equal(core * _CORE_PHASE, _su4_normalize(core)[0])

    def test_core_phase_takes_u_cnot_to_su4_bit_for_bit(self):
        # u C[0->1], u in SU(4), has determinant -1 as the CYZ core does, so
        # _cxz_state takes it to SU(4) by the same constant; also for inputs
        # 0.9 UNITARY_TOL off unitary, which the input check accepts.
        rng = np.random.default_rng(22)
        scale = math.sqrt(1.0 + 0.9 * nm.UNITARY_TOL / 2.0)
        for _ in range(300):
            m = nm.haar_unitary(4, rng)
            for u in (m, m * scale):
                prod = _su4_normalize(u)[0] @ nm.CNOT01
                assert np.array_equal(prod * _CORE_PHASE, _su4_normalize(prod)[0])

    def test_cxz_core_is_already_special_unitary(self):
        # CNOT (Rx x Rz) CNOT has determinant 1 by construction, so the CXZ
        # core's closed form (_core_form) carries no phase factor.
        rng = np.random.default_rng(21)
        pairs = list(itertools.product(CORE_ANGLES, repeat=2))
        pairs += [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(200)]
        for theta, phi in pairs:
            core = simulate(core_circuit((theta, phi)))
            assert np.array_equal(core, _su4_normalize(core)[0])


class TestEnumerate:
    @pytest.mark.parametrize(
        "limit", [0, -1, True, False, 2.5, float("nan"), "2", None, 2.0, np.int64(0), np.bool_(True), np.float64(2.0)]
    )
    def test_rejects_a_limit_that_is_not_a_positive_integer(self, limit):
        # limit=2.5 gave 3 circuits, limit=True gave 1, and limit="2"
        # raised a bare TypeError; the rule of effectively_separated's depth.
        with pytest.raises(ValueError, match="^limit must be >= 1, a positive integer, got "):
            enumerate_circuits(nm.CNOT01, GateLibrary.CYZ, limit=limit)

    @pytest.mark.parametrize("limit", [np.int64(2), np.int32(1), np.uint8(3)])
    def test_a_numpy_integer_limit_is_that_limit(self, limit):
        # As a gate wire may be one, a limit computed with NumPy is taken.
        u = nm.haar_unitary(4, np.random.default_rng(12))
        got = enumerate_circuits(u, GateLibrary.CYZ, limit=limit)
        want = enumerate_circuits(u, GateLibrary.CYZ, limit=int(limit))
        assert len(got) == int(limit)
        assert [r.circuit for r in got] == [r.circuit for r in want]

    def test_yields_distinct_verified_circuits(self):
        rng = np.random.default_rng(12)
        u = nm.haar_unitary(4, rng)
        results = enumerate_circuits(u, GateLibrary.CYZ, limit=6)
        assert 2 <= len(results) <= 6
        texts = set()
        for r in results:
            assert r.residual <= 1e-8
            assert r.cnot_count == 3
            texts.add(tuple((type(g).__name__, getattr(g, "angle", None)) for g in r.circuit.gates))
        assert len(texts) == len(results)

    def test_basic_alternatives_differing_only_in_local_gates_are_kept(self):
        # At the SWAP corner every eigen-ordering gives the same core
        # rotations; the alternatives differ in their Generic1Q gates.
        rng = np.random.default_rng(2)
        u = with_haar_locals(reference.canonical(math.pi / 4, math.pi / 4, math.pi / 4), rng)
        results = enumerate_circuits(u, GateLibrary.BASIC, limit=24)
        cores = {
            tuple(
                (g.axis, g.qubit, round(g.angle, 9)) if isinstance(g, Rotation) else g
                for g in r.circuit.gates
                if isinstance(g, (Rotation, CNOT))
            )
            for r in results
        }
        assert len(cores) < len(results)
        for r in results:
            assert nm.phase_distance(simulate(r.circuit), u) <= 1e-8

    def test_respects_limit(self):
        rng = np.random.default_rng(13)
        u = nm.haar_unitary(4, rng)
        assert len(enumerate_circuits(u, GateLibrary.CXZ, limit=2)) <= 2

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            enumerate_circuits(np.eye(4), GateLibrary.CYZ, limit=0)

    @pytest.mark.parametrize("lib", list(GateLibrary))
    @pytest.mark.parametrize("name", ["identity", "swap", "cnot", "cz"])
    def test_one_result_per_verified_candidate_in_order(self, name, lib):
        u = named_gate(name)
        outcomes = synthesis._outcomes(u, lib, DEFAULT_TOL, "enumerate_circuits")
        verified = [r for r in outcomes if isinstance(r, SynthesisResult)]
        assert enumerate_circuits(u, lib, limit=24) == verified
        assert enumerate_circuits(u, lib, limit=1)[0] == synthesize(u, lib)


def gate_shape(g):
    """(gate type, axis, wire) of a gate, a CNOT's wire (control, target)."""
    if isinstance(g, CNOT):
        return ("CNOT", None, (g.control, g.target))
    return (type(g).__name__, getattr(g, "axis", None), g.qubit)


def near_cnot_input(draw):
    """Draw ``draw`` (0-based) of (a x b) CNOT can(eps d), with eps
    log-uniform in [1e-12, 1e-6], d a unit vector and a, b Haar, seed 2024."""
    rng = np.random.default_rng(2024)
    for _ in range(draw + 1):
        eps = 10.0 ** rng.uniform(-12.0, -6.0)
        d = rng.standard_normal(3)
        a, b = nm.haar_unitary(2, rng), nm.haar_unitary(2, rng)
    return np.kron(a, b) @ nm.CNOT01 @ reference.canonical(*(eps * d / np.linalg.norm(d)))


class TestOneUniversalCircuit:
    """Each library emits one universal circuit: its candidates differ only
    in their angles and one-qubit matrices."""

    @pytest.mark.parametrize("lib", list(GateLibrary))
    def test_every_candidate_has_the_same_gate_sequence(self, lib):
        rng = np.random.default_rng(29)
        shapes = set()
        for _ in range(4):
            for result in enumerate_circuits(nm.haar_unitary(4, rng), lib, limit=24):
                shapes.add(tuple(gate_shape(g) for g in result.circuit.gates))
        assert len(shapes) == 1
        kinds = collections.Counter(kind for kind, _, _ in shapes.pop())
        if lib is GateLibrary.BASIC:
            assert kinds == {"CNOT": 3, "Rotation": 3, "Generic1Q": 4}
        else:
            assert kinds == {"CNOT": 3, "Rotation": 15}

    def test_cxz_has_four_candidates(self):
        u = nm.haar_unitary(4, np.random.default_rng(30))
        assert len(list(_candidates(u, GateLibrary.CXZ))) == len(_CXZ_TAGS) == 4

    def test_near_cnot_input_gets_the_four_cxz_variants_only(self):
        # At eps = 4.46e-9 the wire-swapped cores CNOT (Rz x Rx) CNOT, which
        # are local, once verified too (residual 3.1e-9), with a second
        # topology: enumerate_circuits returned rs:zx and -rs:zx as well.
        u = near_cnot_input(58)
        results = enumerate_circuits(u, GateLibrary.CXZ)
        assert [r.eigen_order for r in results] == ["rs", "sr", "-rs", "-sr"]
        for r in results:
            assert reference.phase_distance(reference.product(r.circuit.gates), u) <= 1e-8


#: Examples per property test; derandomized, with no example database, so
#: the suite draws the same inputs on every run.
_PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

#: A chamber coordinate: a corner value with positive probability.
_COORDINATE = st.one_of(st.sampled_from((0.0, Q)), st.floats(0.0, Q))


@st.composite
def chamber_inputs(draw):
    """can(a, b, c), pi/4 >= a >= b >= c >= 0, offset by eps in a seeded
    direction, between Haar locals from a drawn seed.  Corners, edges and
    faces come with positive probability: each coordinate may be 0 or pi/4,
    and a = b and b = c may be forced.  eps is 0 or log-uniform in [1e-12,
    1e-4]."""
    a, b, c = sorted((draw(_COORDINATE) for _ in range(3)), reverse=True)
    if draw(st.booleans()):
        b = a
    if draw(st.booleans()):
        c = b
    eps = draw(st.one_of(st.just(0.0), st.floats(-12.0, -4.0).map(lambda x: 10.0**x)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.standard_normal(3)
    return with_haar_locals(reference.canonical(*(np.array([a, b, c]) + eps * d / np.linalg.norm(d))), rng)


@st.composite
def near_unitary_inputs(draw):
    """A ``chamber_inputs`` u moved off the unitary group to m = u (I + h),
    h Hermitian in a drawn direction, scaled so that ||m^dag m - I||_F,
    the unit of the input check, is 0.9 UNITARY_TOL to first order."""
    u = draw(chamber_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    return u @ (nm.I4 + 0.45 * nm.UNITARY_TOL * h / np.linalg.norm(h))


class TestSynthesisProperties:
    def test_chamber_inputs_verify_and_every_tried_core_form_is_exact(self):
        # Every answer of every library verifies against the plain product,
        # a refusal is only VerificationFailed, and the closed form of each
        # core a call tried is that of the simulated core.
        answered = []

        @_PROPERTY
        @given(chamber_inputs())
        def check(u):
            for lib in GateLibrary:
                with mock.patch.object(synthesis, "_core_form", wraps=synthesis._core_form) as spy:
                    try:
                        result = synthesize(u, lib)
                    except VerificationFailed:
                        result = None
                assert spy.call_args_list
                for call in spy.call_args_list:
                    assert_core_form_matches_simulation(*call.args)
                if result is not None:
                    assert reference.phase_distance(reference.product(result.circuit.gates), u) <= 1e-8
                    answered.append(lib)

        check()
        assert set(answered) == set(GateLibrary)

    def test_inputs_near_the_unitary_tolerance_verify_or_are_refused(self):
        # The input check passes these, and the local layer's SO(4) split
        # checks its miss at LOCAL_TOL, a tenth of the check's bound: the
        # polar step of the magic form must take the non-unitarity out
        # first.  Every answer verifies against the input itself, and a
        # refusal is only VerificationFailed.
        answered = []

        @_PROPERTY
        @given(near_unitary_inputs())
        def check(m):
            assert nm.is_unitary(m) and not nm.is_unitary(m, 0.89 * nm.UNITARY_TOL)
            for lib in GateLibrary:
                try:
                    result = synthesize(m, lib)
                except VerificationFailed:
                    continue
                assert reference.phase_distance(reference.product(result.circuit.gates), m) <= 1e-8
                answered.append(lib)

        check()
        assert set(answered) == set(GateLibrary)

    def test_enumerated_circuits_verify_and_are_distinct(self):
        # Every circuit enumerate_circuits returns verifies against the
        # plain product, and no two candidates give the same circuit.
        sizes = []

        @settings(_PROPERTY, max_examples=60)
        @given(chamber_inputs())
        def check(u):
            for lib in GateLibrary:
                try:
                    results = enumerate_circuits(u, lib)
                except VerificationFailed:
                    continue
                assert len({circuit_to_text(r.circuit) for r in results}) == len(results)
                for r in results:
                    assert r.residual <= DEFAULT_TOL
                    assert reference.phase_distance(reference.product(r.circuit.gates), u) <= 1e-8
                sizes.append(len(results))

        check()
        assert max(sizes) > 1


def cost_bases():
    """20 seeded Haar inputs and every chamber point of ``chamber_corpus()``
    at eps = 0, undressed."""
    rng = np.random.default_rng(51)
    return [nm.haar_unitary(4, rng) for _ in range(20)] + [reference.canonical(*p) for p in CHAMBER_POINTS]


class TestCostProperties:
    def test_cost_is_unchanged_by_local_dressing_and_global_phase(self):
        # cnot_cost of e^{i phi} (a x b) u (c x d), Haar a, b, c, d from a
        # drawn seed, is that of u for every base u: the cost is a function
        # of the double coset, whatever the phase of the SU(4) representative.
        bases = cost_bases()
        costs = [cnot_cost(u) for u in bases]
        assert set(costs) == {0, 1, 2, 3}

        @settings(_PROPERTY, max_examples=100)
        @given(st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
        def check(seed, phi):
            rng = np.random.default_rng(seed)
            for u, cost in zip(bases, costs):
                assert cnot_cost(cmath.exp(1j * phi) * with_haar_locals(u, rng)) == cost

        check()
