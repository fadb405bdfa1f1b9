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
    Swap,
    circuit_to_text,
    euler_decompose,
    gate_matrix,
    gate_to_text,
    parse_circuit,
    rotation_matrix2,
    simulate,
    su4_normalize,
    tensor_factor,
    to_qasm,
    wrap_angle,
)
from q2synth.errors import CircuitParseError, NotLocal, NotUnitary


def su2(rng):
    u = nm.haar_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


class TestGates:
    def test_rotation_matrix_conventions(self):
        # R_n(t) = cos(t/2) I - i sin(t/2) sigma_n
        t = 0.8
        for axis, sigma in ((Axis.X, nm.SIGMA_X), (Axis.Y, nm.SIGMA_Y), (Axis.Z, nm.SIGMA_Z)):
            expect = math.cos(t / 2) * nm.I2 - 1j * math.sin(t / 2) * sigma
            assert np.allclose(rotation_matrix2(axis, t), expect, atol=1e-15)

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            Rotation(Axis.X, 2, 0.5)
        with pytest.raises(ValueError):
            Rotation(Axis.X, 0, float("nan"))

    def test_cnot_validation(self):
        with pytest.raises(ValueError):
            CNOT(0, 0)
        with pytest.raises(ValueError):
            CNOT(0, 2)

    def test_generic1q_normalizes_determinant(self):
        g = Generic1Q(0, nm.SIGMA_X)  # det -1 input
        assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-12
        assert nm.phase_distance(g.matrix, nm.SIGMA_X) <= 1e-12

    def test_generic1q_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            Generic1Q(0, np.ones((2, 2)))

    def test_generic1q_value_equality(self):
        a = Generic1Q(0, nm.SIGMA_X)
        b = Generic1Q(0, nm.SIGMA_X)
        assert a == b
        assert a != Generic1Q(1, nm.SIGMA_X)

    def test_gate_matrix_wire_convention(self):
        rng = np.random.default_rng(0)
        a = su2(rng)
        assert np.allclose(gate_matrix(Generic1Q(0, a)), nm.kron(a, nm.I2), atol=1e-14)
        assert np.allclose(gate_matrix(Generic1Q(1, a)), nm.kron(nm.I2, a), atol=1e-14)
        assert np.allclose(gate_matrix(CNOT(0, 1)), nm.CNOT01)
        assert np.allclose(gate_matrix(CNOT(1, 0)), nm.CNOT10)
        assert np.allclose(gate_matrix(Swap()), nm.SWAP_MAT)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)


class TestSimulateAndCounts:
    def test_later_gates_apply_later(self):
        c = Circuit((Rotation(Axis.X, 0, 0.4), CNOT(0, 1)))
        expect = nm.CNOT01 @ gate_matrix(Rotation(Axis.X, 0, 0.4))
        assert np.allclose(simulate(c), expect, atol=1e-14)

    def test_empty_circuit_is_identity(self):
        assert np.allclose(simulate(Circuit(())), np.eye(4))

    def test_matches_ordered_product_of_gate_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            # every gate type, on both wires, in a seeded order
            gates = [
                Rotation(list(Axis)[int(rng.integers(3))], 0, float(rng.uniform(-4, 4))),
                Rotation(list(Axis)[int(rng.integers(3))], 1, float(rng.uniform(-4, 4))),
                Generic1Q(0, nm.haar_unitary(2, rng)),
                Generic1Q(1, nm.haar_unitary(2, rng)),
                CNOT(0, 1),
                CNOT(1, 0),
                Swap(),
            ]
            gates += [gates[int(i)] for i in rng.integers(0, len(gates), int(rng.integers(0, 12)))]
            gates = [gates[int(i)] for i in rng.permutation(len(gates))]
            expect = np.eye(4)
            for g in gates:
                expect = gate_matrix(g) @ expect
            assert np.abs(simulate(Circuit(tuple(gates))) - expect).max() <= 1e-13

    def test_counts(self):
        c = Circuit(
            (
                Rotation(Axis.Y, 0, 0.1),
                Generic1Q(1, nm.SIGMA_X),
                CNOT(0, 1),
                Swap(),
                CNOT(1, 0),
            )
        )
        assert c.cnot_count == 2
        assert c.one_param_count == 1
        # SWAP expands to three CNOTs in basic-gate accounting
        assert c.basic_count == 1 + 1 + 1 + 3 + 1

    def test_su4_normalize(self):
        rng = np.random.default_rng(1)
        u = nm.haar_unitary(4, rng)
        v, phase = su4_normalize(u)
        assert abs(np.linalg.det(v) - 1.0) <= 1e-12
        assert np.allclose(np.exp(1j * phase) * v, u, atol=1e-12)


class TestEulerDecompose:
    FRAMES = [
        (Axis.Z, Axis.Y),
        (Axis.Z, Axis.X),
        (Axis.Y, Axis.Z),
        (Axis.Y, Axis.X),
        (Axis.X, Axis.Y),
        (Axis.X, Axis.Z),
    ]

    @pytest.mark.parametrize("outer,inner", FRAMES)
    def test_round_trip_random(self, outer, inner):
        rng = np.random.default_rng(hash((outer.value, inner.value)) % 2**31)
        for _ in range(50):
            u = su2(rng)
            theta, phi, psi, phase = euler_decompose(u, outer, inner)
            recon = (
                np.exp(1j * phase)
                * rotation_matrix2(outer, theta)
                @ rotation_matrix2(inner, phi)
                @ rotation_matrix2(outer, psi)
            )
            assert np.max(np.abs(recon - u)) <= 1e-12

    @pytest.mark.parametrize(
        "u",
        [
            np.eye(2, dtype=complex),
            rotation_matrix2(Axis.Z, 1.3),
            rotation_matrix2(Axis.X, math.pi),
            rotation_matrix2(Axis.Y, math.pi),
            np.diag([1j, -1j]),
        ],
    )
    def test_degenerate_cases(self, u):
        theta, phi, psi, phase = euler_decompose(u, Axis.Z, Axis.Y)
        recon = (
            np.exp(1j * phase)
            * rotation_matrix2(Axis.Z, theta)
            @ rotation_matrix2(Axis.Y, phi)
            @ rotation_matrix2(Axis.Z, psi)
        )
        assert np.max(np.abs(recon - u)) <= 1e-12

    def test_rejects_equal_axes(self):
        with pytest.raises(ValueError):
            euler_decompose(np.eye(2), Axis.Z, Axis.Z)


class TestTensorFactor:
    def test_reconstructs_products(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = su2(rng), su2(rng)
            g = np.exp(1j * rng.uniform(-np.pi, np.pi)) * nm.kron(a, b)
            fa, fb = tensor_factor(g)
            assert nm.phase_distance(nm.kron(fa, fb), g) <= 1e-10
            assert abs(np.linalg.det(fa) - 1) <= 1e-10
            assert abs(np.linalg.det(fb) - 1) <= 1e-10

    def test_factors_one_sided_products(self):
        rng = np.random.default_rng(3)
        a = su2(rng)
        fa, fb = tensor_factor(nm.kron(a, nm.I2))
        assert nm.phase_distance(nm.kron(fa, fb), nm.kron(a, nm.I2)) <= 1e-10

    def test_rejects_entangling_gates(self):
        with pytest.raises(NotLocal):
            tensor_factor(nm.CNOT01)
        with pytest.raises(NotLocal):
            tensor_factor(nm.MAGIC)
        # real orthogonal in the magic basis, but with determinant -1
        with pytest.raises(NotLocal):
            tensor_factor(nm.SWAP_MAT)


class TestSerialization:
    def round_trip(self, c):
        text = circuit_to_text(c)
        back = parse_circuit(text)
        assert nm.phase_distance(simulate(back), simulate(c)) <= 1e-12
        return back

    def test_round_trip_all_gate_kinds(self):
        rng = np.random.default_rng(4)
        c = Circuit(
            (
                Rotation(Axis.X, 0, 0.123456789012345678),
                Rotation(Axis.Y, 1, -2.5),
                Rotation(Axis.Z, 0, math.pi),
                CNOT(0, 1),
                CNOT(1, 0),
                Generic1Q(1, su2(rng)),
                Swap(),
            )
        )
        back = self.round_trip(c)
        assert back.gates[:5] == c.gates[:5]
        assert isinstance(back.gates[5], Generic1Q)

    def test_round_trip_is_exact_for_rotations(self):
        c = Circuit((Rotation(Axis.Y, 0, 1.0000000000000004),))
        back = parse_circuit(circuit_to_text(c))
        assert back.gates[0].angle == c.gates[0].angle

    def test_comments_and_blank_lines(self):
        c = parse_circuit("# header\n\nCNOT 0 1  # inline\n   \nSWAP\n")
        assert len(c.gates) == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("FOO 0 1\n", "line 1"),
            ("RX 0\n", "line 1"),
            ("CNOT 0 q\n", "line 1"),
            ("RX 5 0.3\n", "line 1"),
            ("CNOT 0 1\nRY zero 1\n", "line 2"),
            ("U3 0 1 2 3\n", "line 1"),
        ],
    )
    def test_parse_errors_cite_line(self, text, fragment):
        with pytest.raises(CircuitParseError) as exc:
            parse_circuit(text)
        assert fragment in str(exc.value)

    def test_qasm_output(self):
        rng = np.random.default_rng(5)
        c = Circuit(
            (
                Rotation(Axis.X, 0, 0.25),
                CNOT(1, 0),
                Generic1Q(0, su2(rng)),
                Swap(),
            )
        )
        qasm = to_qasm(c)
        assert qasm.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in qasm
        assert "qreg q[2];" in qasm
        assert "rx(0.25) q[0];" in qasm
        assert "cx q[1],q[0];" in qasm
        assert "u3(" in qasm
        assert "swap q[0],q[1];" in qasm

    def test_qasm_u3_euler_angles_reconstruct(self):
        rng = np.random.default_rng(6)
        u = su2(rng)
        theta, phi, psi, _ = euler_decompose(u, Axis.Z, Axis.Y)
        recon = (
            rotation_matrix2(Axis.Z, theta)
            @ rotation_matrix2(Axis.Y, phi)
            @ rotation_matrix2(Axis.Z, psi)
        )
        assert nm.phase_distance(recon, u) <= 1e-12

    def test_gate_to_text_formats(self):
        assert gate_to_text(Rotation(Axis.Y, 1, 0.5)) == "RY 1 0.5"
        assert gate_to_text(CNOT(0, 1)) == "CNOT 0 1"
        assert gate_to_text(Swap()) == "SWAP"
        assert gate_to_text(Generic1Q(0, nm.I2)).startswith("U3 0 ")
