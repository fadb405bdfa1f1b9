import itertools
import math

import numpy as np
import pytest

from q2synth import numerics as nm
from q2synth.circuit import (
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    simulate,
    su4_normalize,
)
from q2synth.errors import CosetMismatch, NotUnitary, VerificationFailed
from q2synth.invariants import gamma, same_double_coset
from q2synth.synthesis import (
    _CXY_CONJ,
    DEFAULT_TOL,
    EIGEN_ORDERS,
    CXZCore,
    CYZCore,
    GateLibrary,
    _candidate_tags,
    _conjugate_pair_angles,
    _delta_matrix,
    _local_gates,
    _map_cxy_gate,
    _result_for,
    _strip_zero_rotations,
    core_params_cxz,
    core_params_cyz,
    cyz_core_circuit,
    enumerate_circuits,
    match_local_factors,
    synthesize,
)

ROTATION_AXES = {
    GateLibrary.CYZ: {Axis.Y, Axis.Z},
    GateLibrary.CXY: {Axis.X, Axis.Y},
    GateLibrary.CXZ: {Axis.X, Axis.Z},
}


def su2(rng):
    u = nm.haar_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


def su4(rng):
    return su4_normalize(nm.haar_unitary(4, rng))[0]


_XX = nm.kron(nm.SIGMA_X, nm.SIGMA_X)
_ZZ = nm.kron(nm.SIGMA_Z, nm.SIGMA_Z)


def canonical(a, b, c):
    """can(a, b, c) = exp(i(a XX + b YY + c ZZ)); the three terms commute."""
    out = nm.I4
    for t, p in ((a, _XX), (b, nm.SYY), (c, _ZZ)):
        out = out @ (math.cos(t) * nm.I4 + 1j * math.sin(t) * p)
    return out


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
            yield with_haar_locals(canonical(*(np.asarray(point) + 1e-6 * d / np.linalg.norm(d))), rng)


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
                yield with_haar_locals(canonical(*(np.asarray(point) + eps * d / np.linalg.norm(d))), rng)


def reference_candidate(u, lib, candidate, tol=DEFAULT_TOL):
    """One candidate composed from the public stage functions, each with its
    own input checks: su4_normalize, core_params_*, the core circuit,
    match_local_factors, then the local gates."""
    if lib is GateLibrary.CXY:
        circuit, tag = reference_candidate(_CXY_CONJ @ u @ _CXY_CONJ, GateLibrary.CYZ, candidate, tol)
        return Circuit(tuple(_map_cxy_gate(g) for g in circuit.gates)), tag
    u_norm, _ = su4_normalize(u)
    if lib is not GateLibrary.CXZ:
        core = cyz_core_circuit(core_params_cyz(u_norm, candidate, tol))
        core_norm, _ = su4_normalize(simulate(core))
        a, b, c, d = match_local_factors(u_norm, core_norm, tol)
        gates = _local_gates(c, 0, lib) + _local_gates(d, 1, lib)
        gates += _strip_zero_rotations(core.gates)
        gates += _local_gates(a, 0, lib) + _local_gates(b, 1, lib)
        return Circuit(tuple(gates)), "%d%d%d" % candidate

    neg, swap_rs, swap_wires = candidate
    params = core_params_cxz(u_norm, tol)
    theta, phi = params.theta, -params.phi if swap_rs else params.phi
    if neg:
        theta, phi = -theta, -phi
    if swap_wires:
        mid = (Rotation(Axis.Z, 0, theta), Rotation(Axis.X, 1, phi))
    else:
        mid = (Rotation(Axis.X, 0, theta), Rotation(Axis.Z, 1, phi))
    w_core = Circuit((CNOT(0, 1),) + mid + (CNOT(0, 1),))
    w_norm, _ = su4_normalize(simulate(w_core))
    u_mat, _ = su4_normalize(u_norm @ nm.CNOT01)
    m_mat, _ = su4_normalize(u_mat @ _delta_matrix(params.psi))
    a, b, c, d = match_local_factors(m_mat, w_norm, tol)
    gates = [Rotation(Axis.Z, 1, -params.psi), CNOT(0, 1)]
    gates += _local_gates(c, 0, lib) + _local_gates(d, 1, lib)
    gates += _strip_zero_rotations(w_core.gates)
    gates += _local_gates(a, 0, lib) + _local_gates(b, 1, lib)
    tag = ("-" if neg else "") + ("sr" if swap_rs else "rs") + (":zx" if swap_wires else "")
    return Circuit(tuple(_strip_zero_rotations(gates))), tag


def reference_synthesize(u, lib, tol=DEFAULT_TOL):
    """synthesize with every candidate composed by ``reference_candidate``."""
    u = np.asarray(u, dtype=np.complex128)
    last_error = None
    for candidate in _candidate_tags(lib):
        try:
            circuit, tag = reference_candidate(u, lib, candidate, tol)
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


class TestCoreParamsCXZ:
    def test_psi_makes_the_invariant_trace_real(self):
        # Haar inputs, and inputs at which the two terms fixing tan(psi)
        # both vanish or nearly do: CNOT, SWAP and can(eps, eps, eps).
        rng = np.random.default_rng(2)
        inputs = [su4(rng) for _ in range(30)]
        for m in (nm.CNOT01, nm.SWAP_MAT, canonical(1e-6, 1e-6, 1e-6)):
            inputs += [m] + [with_haar_locals(m, rng) for _ in range(10)]
        for u in inputs:
            u_prime, _ = su4_normalize(u @ nm.CNOT01)
            params = core_params_cxz(u_prime)
            m, _ = su4_normalize(u_prime @ nm.CNOT01 @ _delta_matrix(params.psi))
            # building the shifted operator directly from the definition
            u_mat, _ = su4_normalize(u_prime @ nm.CNOT01)
            m2, _ = su4_normalize(u_mat @ _delta_matrix(params.psi))
            assert abs(np.trace(gamma(m2)).imag) <= 1e-9

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_pair_angles_at_minus_one(self, zero):
        # -1 has principal angle pi or -pi by the sign of its imaginary zero;
        # the pair {-1, -1} is e^{+-i pi} either way.
        r, s = _conjugate_pair_angles(np.array([complex(-1.0, zero), complex(-1.0, zero), 1.0, 1.0]))
        assert (r, s) == (math.pi, 0.0)

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
        rng = np.random.default_rng(7)
        u = nm.haar_unitary(4, rng)
        result = synthesize(u, lib)
        for g in result.circuit.gates:
            if isinstance(g, Rotation):
                assert lib is GateLibrary.BASIC or g.axis in ROTATION_AXES[lib]
            elif isinstance(g, Generic1Q):
                assert lib is GateLibrary.BASIC
            else:
                assert isinstance(g, CNOT)

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
        # and every core by its constant basis, with no eigh.  An eigh per
        # core made 25; rebuilding the input side per candidate made 72.
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
    def test_same_circuits_as_public_stage_composition(self, lib):
        rng = np.random.default_rng(16)
        inputs = [nm.haar_unitary(4, rng) for _ in range(20)]
        inputs += list(near_corner_and_edge_inputs())
        refused = 0
        for u in inputs:
            try:
                expected = reference_synthesize(u, lib)
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
    """Each constant basis of ``numerics._CORE_BASES`` diagonalizes its
    core's symmetric form at every angle."""

    def test_cyz_core(self):
        q = nm._CORE_BASES[0]
        rng = np.random.default_rng(18)
        triples = list(itertools.product(CORE_ANGLES, repeat=3))
        triples += [tuple(rng.uniform(-math.pi, math.pi, 3)) for _ in range(200)]
        for alpha, beta, delta in triples:
            p = magic_symmetric_form(simulate(cyz_core_circuit(CYZCore(alpha, beta, delta))))
            assert nm._off_diagonal(q @ p @ q.T) <= 1e-13

    @pytest.mark.parametrize("swap_wires", [False, True])
    def test_cxz_core(self, swap_wires):
        q = nm._CORE_BASES[1]
        rng = np.random.default_rng(19)
        pairs = list(itertools.product(CORE_ANGLES, repeat=2))
        pairs += [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(200)]
        for theta, phi in pairs:
            if swap_wires:
                mid = (Rotation(Axis.Z, 0, theta), Rotation(Axis.X, 1, phi))
            else:
                mid = (Rotation(Axis.X, 0, theta), Rotation(Axis.Z, 1, phi))
            p = magic_symmetric_form(simulate(Circuit((CNOT(0, 1),) + mid + (CNOT(0, 1),))))
            assert nm._off_diagonal(q @ p @ q.T) <= 1e-13


class TestEnumerate:
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
        u = with_haar_locals(canonical(math.pi / 4, math.pi / 4, math.pi / 4), rng)
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
