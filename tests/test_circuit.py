import cmath
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2synth import numerics as nm
from q2synth.circuit import (
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    _cross,
    _entries,
    _frame,
    _FRAME_READS,
    _so4_factors,
    _su2,
    _zy_angles,
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

# The benchmark's plain-NumPy reference, which never imports q2synth.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402


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

    @pytest.mark.parametrize("axis", ["x", "X", "z", None, 0])
    def test_rotation_rejects_an_axis_that_is_not_an_axis(self, axis):
        # A string axis would reach simulate unchecked, and reduce would
        # merge two such gates without complaint.
        with pytest.raises(ValueError, match="rotation axis must be an Axis"):
            Rotation(axis, 0, 0.3)
        with pytest.raises(ValueError, match="rotation axis must be an Axis, not %r" % (axis,)):
            rotation_matrix2(axis, 0.3)

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

    @pytest.mark.parametrize("qubit", [-1, 2, 0.5])
    def test_generic1q_rejects_a_qubit_other_than_0_or_1(self, qubit):
        with pytest.raises(ValueError, match="^qubit must be 0 or 1$"):
            Generic1Q(qubit, nm.I2)

    def test_generic1q_value_equality(self):
        a = Generic1Q(0, nm.SIGMA_X)
        b = Generic1Q(0, nm.SIGMA_X)
        assert a == b
        assert a != Generic1Q(1, nm.SIGMA_X)
        # Another kind of gate is left to its own comparison.
        assert a.__eq__(Rotation(Axis.X, 0, math.pi)) is NotImplemented
        assert a != Rotation(Axis.X, 0, math.pi)

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

    def test_iteration_yields_the_gates_in_order(self):
        gates = (Rotation(Axis.X, 0, 0.4), CNOT(0, 1), Generic1Q(1, nm.HADAMARD))
        assert tuple(Circuit(gates)) == gates
        assert list(Circuit(())) == []

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

    def test_result_is_a_new_array(self):
        # The empty circuit, a permutation alone, a one-qubit layer alone and
        # a one-gate circuit: writing into the result changes neither the
        # package's constants nor a later result.
        circuits = [
            Circuit(()),
            Circuit((CNOT(0, 1),)),
            Circuit((Swap(), CNOT(1, 0))),
            Circuit((Rotation(Axis.Z, 0, 0.3),)),
        ]
        for c in circuits:
            m = simulate(c)
            expected = m.copy()
            m[:] = 7.0
            assert np.array_equal(simulate(c), expected)
        g = gate_matrix(CNOT(0, 1))
        g[:] = 7.0
        assert np.array_equal(nm.I4, np.eye(4))
        assert np.array_equal(nm.CNOT01, np.eye(4)[[0, 1, 3, 2]])

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

    @pytest.mark.parametrize("imag", [0.0, -0.0, 1e-16, -1e-16, 1e-13, -1e-13])
    def test_su4_normalize_takes_plus_pi_at_det_minus_one(self, imag):
        # A determinant of -1 whose imaginary part is zero of either sign or
        # at rounding level: arg det is +pi, not -pi, so the SU(4)
        # representative does not depend on that sign.
        u = np.diag([complex(math.cos(imag), math.sin(imag)), 1.0, 1.0, -1.0])
        v, phase = su4_normalize(u)
        assert phase == math.pi / 4
        assert abs(np.linalg.det(v) - 1.0) <= 1e-12


def random_one_qubit_gate(rng, qubit):
    if rng.random() < 0.25:
        return Generic1Q(qubit, nm.haar_unitary(2, rng))
    return Rotation(list(Axis)[int(rng.integers(3))], qubit, float(rng.uniform(-4, 4)))


def random_fused_circuit(rng):
    """Seeded segments: runs of 1-4 one-qubit gates on one wire or on both
    wires interleaved, and 1-3 back-to-back CNOTs (either way) and SWAPs."""
    gates = []
    for _ in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(4))
        if kind == 3:
            for _ in range(int(rng.integers(1, 4))):
                gates.append([CNOT(0, 1), CNOT(1, 0), Swap()][int(rng.integers(3))])
        else:
            for _ in range(int(rng.integers(1, 5))):
                gates.append(random_one_qubit_gate(rng, int(rng.integers(2)) if kind == 2 else kind))
    return Circuit(tuple(gates))


def special_shape_circuits():
    """The empty circuit, runs on one wire only, permutations only, and
    circuits that end in a layer or in back-to-back two-qubit gates."""
    rng = np.random.default_rng(32)
    a, b = Generic1Q(0, nm.haar_unitary(2, rng)), Generic1Q(1, nm.haar_unitary(2, rng))
    rz, rx, ry = Rotation(Axis.Z, 1, 0.7), Rotation(Axis.X, 1, -1.9), Rotation(Axis.Y, 0, 2.4)
    circuits = [
        (),
        (rz, rx, b),  # one wire only
        (ry, a),  # the other wire only
        (CNOT(0, 1), CNOT(1, 0), Swap()),  # permutations only
        (CNOT(1, 0), ry, rz, a, rx, b),  # ends in a layer
        (ry, rz, CNOT(0, 1), Swap()),  # ends in back-to-back two-qubit gates
        (rz, CNOT(0, 1), rx, Swap(), ry, CNOT(1, 0), a),
    ]
    return [Circuit(gates) for gates in circuits]


class TestFusedSimulate:
    """simulate multiplies each one-qubit run into one 2x2, applies both
    wires' runs as one Kronecker layer and a CNOT or SWAP as a row
    permutation; the result is the ordered product of the gates."""

    def test_random_circuits(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            c = random_fused_circuit(rng)
            assert np.abs(simulate(c) - reference.product(c.gates)).max() <= 1e-13

    def test_special_shapes(self):
        for c in special_shape_circuits():
            assert np.abs(simulate(c) - reference.product(c.gates)).max() <= 1e-13

    def test_rejects_a_non_gate(self):
        with pytest.raises(TypeError):
            simulate(Circuit((object(),)))
        with pytest.raises(TypeError, match="^not a gate: "):
            _entries(object())

    def test_an_untrusted_axis_still_raises(self):
        bad = Rotation._trusted("x", 0, 0.3)
        for gates in [(bad,), (Rotation(Axis.Z, 0, 0.2), CNOT(0, 1), bad, Rotation(Axis.Y, 1, 0.4))]:
            with pytest.raises(ValueError, match="rotation axis must be an Axis"):
                simulate(Circuit(gates))


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
        # Seeded by the pair's place in FRAMES: the same inputs on every run.
        rng = np.random.default_rng(self.FRAMES.index((outer, inner)))
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

    @pytest.mark.parametrize(
        "outer,inner,name",
        [("z", "y", "outer"), (None, None, "outer"), (Axis.Z, "y", "inner"), (Axis.Z, None, "inner")],
    )
    def test_rejects_an_axis_that_is_not_an_axis(self, outer, inner, name):
        # A typed error that names the argument, as Rotation's, not a
        # KeyError from a table or "axes must differ" for (None, None).
        with pytest.raises(ValueError, match=r"^%s axis must be an Axis, not " % name):
            euler_decompose(np.eye(2), outer, inner)


PAULI = {Axis.X: nm.SIGMA_X, Axis.Y: nm.SIGMA_Y, Axis.Z: nm.SIGMA_Z}

#: The five quarter-turn products g (rightmost applied first) with
#: g sigma_z g^dag = sigma_outer and g sigma_y g^dag = sigma_inner exactly,
#: with which euler_decompose once changed frames by conjugation; (Z, Y)
#: needs none.
_QUARTER = math.pi / 2.0
_QUARTER_TURN_FRAMES = {
    (Axis.Z, Axis.Y): nm.I2,
    (Axis.Z, Axis.X): rotation_matrix2(Axis.Z, -_QUARTER),
    (Axis.X, Axis.Y): rotation_matrix2(Axis.Y, _QUARTER),
    (Axis.X, Axis.Z): rotation_matrix2(Axis.Z, _QUARTER) @ rotation_matrix2(Axis.X, _QUARTER),
    (Axis.Y, Axis.X): rotation_matrix2(Axis.X, -_QUARTER) @ rotation_matrix2(Axis.Z, -_QUARTER),
    (Axis.Y, Axis.Z): rotation_matrix2(Axis.X, _QUARTER) @ rotation_matrix2(Axis.Y, 2 * _QUARTER),
}


class TestAxisAlgebra:
    def test_cross_is_the_vector_cross_product(self):
        unit = {axis: np.eye(3)[k] for k, axis in enumerate(Axis)}
        for a, b in itertools.permutations(Axis, 2):
            c, sign = _cross(a, b)
            assert np.array_equal(np.cross(unit[a], unit[b]), sign * unit[c])
            assert sign in (1.0, -1.0)

    def test_cross_is_what_a_quarter_turn_does_to_an_axis(self):
        # S_a sigma_n S_a^dag = sigma_{a x n} for the quarter turn S_a.
        for a, n in itertools.permutations(Axis, 2):
            s = rotation_matrix2(a, _QUARTER)
            c, sign = _cross(a, n)
            assert np.abs(s @ PAULI[n] @ s.conj().T - sign * PAULI[c]).max() <= 1e-15

    def test_the_quarter_turn_products_are_the_frames(self):
        for (outer, inner), g in _QUARTER_TURN_FRAMES.items():
            assert np.abs(g @ nm.SIGMA_Z @ g.conj().T - PAULI[outer]).max() <= 1e-15
            assert np.abs(g @ nm.SIGMA_Y @ g.conj().T - PAULI[inner]).max() <= 1e-15

    @pytest.mark.parametrize("pair", list(_QUARTER_TURN_FRAMES), ids=lambda p: "%s%s" % (p[0].value, p[1].value))
    def test_frame_matches_the_quarter_turn_conjugation(self, pair):
        # The signed permutation of _frame is conjugation by g: su2 of the
        # framed quaternion is g^dag su2(x) g.
        g = _QUARTER_TURN_FRAMES[pair]
        rng = np.random.default_rng(41)
        for _ in range(50):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            y = _frame(tuple(x), _FRAME_READS[pair])
            assert np.abs(_su2(*y) - g.conj().T @ _su2(*x) @ g).max() <= 1e-15
        assert _frame((0.1, 0.2, 0.3, 0.4), _FRAME_READS[Axis.Z, Axis.Y]) == (0.1, 0.2, 0.3, 0.4)

    def test_every_ordered_pair_has_a_frame(self):
        assert set(_FRAME_READS) == set(itertools.permutations(Axis, 2))


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


    @pytest.mark.parametrize("theta", [1e-6, 1e-5, 3e-5])
    def test_a_near_local_split_is_refused_by_its_phase_distance(self, theta, monkeypatch):
        # exp(i theta Z x Z) is 2 theta from the nearest product in phase
        # distance, but its associate matrix misses rank one only in second
        # order, so _so4_factors returns and the last check refuses it.
        returned = []

        def split(o):
            returned.append(_so4_factors(o))
            return returned[-1]

        monkeypatch.setattr("q2synth.circuit._so4_factors", split)
        g = np.diag(np.exp(1j * theta * np.diag(nm.kron(nm.SIGMA_Z, nm.SIGMA_Z))))
        with pytest.raises(NotLocal, match="misses by"):
            tensor_factor(g)
        assert len(returned) == 1


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
            ("RX 0 0.5 7\n", "line 1"),
            ("CNOT 0 1 junk\n", "line 1"),
            ("SWAP 0 1\n", "line 1"),
            ("CNOT 0 1\nSWAP 1\n", "line 2"),
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
        with pytest.raises(TypeError, match="^not a gate: "):
            gate_to_text(object())


#: Derandomized, with no example database, so the suite draws the same
#: circuits on every run.
_PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

#: Any finite angle, with +-0 and +-pi drawn often.
_ANGLES = st.one_of(
    st.sampled_from((0.0, -0.0, math.pi, -math.pi)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def generic_gates(draw):
    """A Generic1Q on a drawn wire: a Haar unitary from a drawn seed at a
    drawn global phase."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return Generic1Q(draw(st.integers(0, 1)), phase * nm.haar_unitary(2, rng))


_GATES = st.one_of(
    st.builds(Rotation, st.sampled_from(list(Axis)), st.integers(0, 1), _ANGLES),
    st.sampled_from((CNOT(0, 1), CNOT(1, 0), Swap())),
    generic_gates(),
)


class TestSerializationProperties:
    def test_text_round_trip_is_exact(self):
        # parse_circuit(circuit_to_text(c)) == c for every gate type, and
        # printing the parsed circuit gives the same text, so the sign of a
        # zero angle survives too.
        @_PROPERTY
        @given(st.lists(_GATES, max_size=8).map(lambda gates: Circuit(tuple(gates))))
        def check(c):
            text = circuit_to_text(c)
            back = parse_circuit(text)
            assert back == c
            assert circuit_to_text(back) == text

        check()


#: A quaternion component: exactly +-0, within ZERO_TOL of 0, or any in
#: [-1, 1].
_COMPONENTS = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.floats(-nm.ZERO_TOL, nm.ZERO_TOL),
    st.floats(-1.0, 1.0),
)


@st.composite
def unit_quaternions(draw):
    """A unit quaternion, often with (x1, x2) or (x0, x3) within ZERO_TOL
    of 0: the two gimbals of the Euler reader.  One drawn component is at
    least 1/2 in size, so the norm is too."""
    x = list(draw(st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS, _COMPONENTS)))
    x[draw(st.integers(0, 3))] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.0))
    norm = math.hypot(*x)
    return tuple(v / norm for v in x)


class TestZYAnglesProperties:
    @pytest.mark.parametrize("outer,inner", list(_QUARTER_TURN_FRAMES), ids=lambda a: a.value)
    def test_angles_rebuild_the_quaternion(self, outer, inner):
        # For every ordered axis pair, the angles of x in its frame give
        # R_outer(theta) R_inner(phi) R_outer(psi) = +-su2(x), to rounding
        # but for the part the gimbal rule drops, |(x1, x2)| or |(x0, x3)|
        # of the framed x within ZERO_TOL; there phi is 0 or pi and psi 0.
        gimbals = set()

        @_PROPERTY
        @given(unit_quaternions())
        def check(x):
            y = _frame(x, _FRAME_READS[outer, inner])
            small = min(math.hypot(y[0], y[3]), math.hypot(y[1], y[2]))
            theta, phi, psi = _zy_angles(y)
            assert -math.pi < theta <= math.pi
            if small <= nm.ZERO_TOL:
                assert psi == 0.0 and phi in (0.0, math.pi)
                gimbals.add(phi)
            rebuilt = (
                rotation_matrix2(outer, theta)
                @ rotation_matrix2(inner, phi)
                @ rotation_matrix2(outer, psi)
            )
            want = _su2(*x)
            miss = min(np.abs(rebuilt - want).max(), np.abs(rebuilt + want).max())
            assert miss <= 1e-14 + (small if small <= nm.ZERO_TOL else 0.0)

        check()
        assert gimbals == {0.0, math.pi}
