import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2synth import numerics as nm
from q2synth import rewrite
from q2synth.circuit import (
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    circuit_to_text,
    parse_circuit,
    rotation_matrix2,
    simulate,
)
from q2synth.errors import NoMatch, UnsupportedGate
from q2synth.rewrite import (
    _DISPATCH,
    _MOVES,
    _REDUCE_PRIORITY,
    _SHAPES,
    RULES,
    ReductionTrace,
    _is_pauli,
    _mirror_gate,
    _s_gate_axis,
    _unitarity_residual,
    apply_rule,
    effectively_separated,
    reduce,
    replay,
)

EXPECTED_RULE_IDS = {
    "CancelCNOT",
    "CancelSWAP",
    "CNOTPairToSWAP",
    "CommuteRxTarget",
    "CommuteRzControl",
    "CommuteSxTarget",
    "CommuteSzControl",
    "MoveSigmaX",
    "MoveSigmaZ",
    "MoveCNOTviaSWAP",
    "Move1QviaSWAP",
    "MergeRotations",
    "AxisChange",
    "FlipCNOTPair",
}


def C(gates):
    return Circuit(tuple(gates))


def random_circuit(rng, max_len=30, generic=True):
    gates = []
    for _ in range(int(rng.integers(1, max_len + 1))):
        kinds = 4 if generic else 3
        k = int(rng.integers(0, kinds))
        if k == 0:
            c = int(rng.integers(0, 2))
            gates.append(CNOT(c, 1 - c))
        elif k == 1:
            gates.append(Swap())
        elif k == 2:
            axis = list(Axis)[int(rng.integers(0, 3))]
            gates.append(Rotation(axis, int(rng.integers(0, 2)), float(rng.uniform(-3, 3))))
        else:
            u = nm.haar_unitary(2, rng)
            gates.append(Generic1Q(int(rng.integers(0, 2)), u))
    return C(gates)


def long_circuit(rng, n):
    """CNOT/SWAP/Haar 1Q/rotation mix of the reduce-long benchmark; half of
    the rotations are quarter or half turns, so the Pauli matchers have work,
    and a few exact Paulis make the Pauli commutations fire."""
    gates = []
    for _ in range(n):
        r = rng.random()
        wire = int(rng.integers(2))
        if r < 0.3:
            gates.append(CNOT(wire, 1 - wire))
        elif r < 0.4:
            gates.append(Swap())
        elif r < 0.8:
            gates.append(Generic1Q(wire, nm.haar_unitary(2, rng)))
        elif r < 0.85:
            gates.append(Generic1Q(wire, nm.SIGMA_X if rng.random() < 0.5 else nm.SIGMA_Z))
        else:
            axis = list(Axis)[int(rng.integers(3))]
            k = rng.random()
            if k < 0.5:
                angle = float(rng.uniform(-math.pi, math.pi))
            elif k < 0.75:
                angle = math.pi / 2 if rng.random() < 0.5 else -math.pi / 2
            else:
                angle = math.pi
            gates.append(Rotation(axis, wire, angle))
    return C(gates)


GATE_TYPES = (CNOT, Swap, Rotation, Generic1Q)


def fires(matcher, window):
    """The replacement that a (slots, fn) matcher gives on ``window``, or
    None when the window does not fit its slots or fn does not fire."""
    slots, fn = matcher
    if len(window) != len(slots) or not all(isinstance(g, s) for g, s in zip(window, slots)):
        return None
    return fn(tuple(window))


def _magnitude_gap(e, v):
    """sum_ij (|e_ij| - |v_ij|)^2, a lower bound on the squared phase
    distance between the matrices with entries e and v."""
    return sum((abs(complex(x)) - abs(complex(y))) ** 2 for x, y in zip(e, v))


def separation_circuit(rng, n):
    """CNOT/Rx/Rz gates with no two CNOTs adjacent to begin with."""
    gates = []
    while len(gates) < n:
        wire = int(rng.integers(2))
        if rng.random() < 0.35 and not (gates and isinstance(gates[-1], CNOT)):
            gates.append(CNOT(wire, 1 - wire))
        else:
            axis = Axis.X if rng.random() < 0.5 else Axis.Z
            gates.append(Rotation(axis, wire, float(rng.uniform(-math.pi, math.pi))))
    return C(gates)


#: The rules of the separation search, and the depths its tests ask at.
SEPARATION_RULES = ("CommuteRxTarget", "CommuteRzControl", "FlipCNOTPair")
DEPTHS = (1, 2, 3, 5, 8, 12)


def _reference_key(g):
    if isinstance(g, Rotation):
        return ("r", g.axis.value, g.qubit, round(g.angle, 10))
    return ("c", g.control, g.target)


def _reference_canonical_key(gates):
    direct = tuple(_reference_key(g) for g in gates)
    mirrored = tuple(("r", k[1], 1 - k[2], k[3]) if k[0] == "r" else ("c", k[2], k[1]) for k in direct)
    return min(direct, mirrored)


def _has_adjacent_cnots(gates):
    return any(isinstance(a, CNOT) and isinstance(b, CNOT) for a, b in zip(gates, gates[1:]))


def reference_separated(c, depth_limit=8):
    """The search over gate objects that ``effectively_separated`` ran before
    it searched the angle-free shape: every state keyed gate by gate, angles
    on a 1e-10 grid, and every separation rule matched at every position."""
    start = tuple(c.gates)
    if _has_adjacent_cnots(start):
        return False
    seen = {_reference_canonical_key(start)}
    frontier = [start]
    for _ in range(depth_limit):
        nxt = []
        for gates in frontier:
            for pos in range(len(gates)):
                for rule_id in SEPARATION_RULES:
                    hit = RULES[rule_id].match(gates, pos)
                    if hit is None:
                        continue
                    length, replacement = hit
                    candidate = gates[:pos] + replacement + gates[pos + length :]
                    key = _reference_canonical_key(candidate)
                    if key in seen:
                        continue
                    if _has_adjacent_cnots(candidate):
                        return False
                    seen.add(key)
                    nxt.append(candidate)
        if not nxt:
            break
        frontier = nxt
    return True


def redrawn(rng, c):
    """c with every angle drawn anew: uniform, 0, a half or quarter turn, or
    the angle last drawn, so that the gate keys of the reference coincide."""
    gates, last = [], 0.0
    for g in c.gates:
        if isinstance(g, Rotation):
            choices = (float(rng.uniform(-math.pi, math.pi)), 0.0, math.pi, math.pi / 2.0, last)
            last = choices[int(rng.integers(len(choices)))]
            g = Rotation(g.axis, g.qubit, last)
        gates.append(g)
    return C(gates)


def _measure(gates):
    cnot_sum = sum(i for i, g in enumerate(gates) if isinstance(g, CNOT))
    swap_deficit = sum(len(gates) - i for i, g in enumerate(gates) if isinstance(g, Swap))
    return (len(gates), cnot_sum, swap_deficit)


def reference_reduce(c):
    """The plain fixed-point loop: after every rewrite, rescan from the first
    tier and position for the first application that lowers the measure."""
    gates = tuple(c.gates)
    steps = []
    changed = True
    while changed:
        changed = False
        measure = _measure(gates)
        for tier in _REDUCE_PRIORITY:
            for pos in range(len(gates)):
                for rule_id in tier:
                    hit = RULES[rule_id].match(gates, pos)
                    if hit is None:
                        continue
                    length, replacement = hit
                    candidate = gates[:pos] + replacement + gates[pos + length :]
                    if _measure(candidate) < measure:
                        gates = candidate
                        steps.append((rule_id, pos))
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return gates, tuple(steps)


class TestRegistry:
    def test_all_rule_ids_registered(self):
        assert set(RULES) == EXPECTED_RULE_IDS

    def test_every_rule_sample_is_phase_sound(self):
        for rule in RULES.values():
            assert rule.samples, rule.id
            for window in rule.samples:
                hit = rule.match(window, 0)
                assert hit is not None, (rule.id, window)
                length, replacement = hit
                assert length == len(window)
                err = nm.phase_distance(
                    simulate(C(replacement)), simulate(C(window))
                )
                assert err <= 1e-12, (rule.id, err)

    def test_samples_cover_every_slot_type(self):
        # A matcher's slots are its only type declaration, so a slot too
        # narrow for its identity shows only on a sample of a type it drops:
        # the samples that fire a matcher must hold, at each slot, exactly
        # the types the slot admits, and every sample must fire a matcher.
        for rule in RULES.values():
            unfired = set(range(len(rule.samples)))
            for matcher in rule.matchers:
                fired = [i for i, w in enumerate(rule.samples) if fires(matcher, w) is not None]
                unfired -= set(fired)
                for k, slot in enumerate(matcher[0]):
                    admitted = {t for t in GATE_TYPES if issubclass(t, slot)}
                    assert {type(rule.samples[i][k]) for i in fired} == admitted, (rule.id, k)
            assert not unfired, rule.id


class TestApplyRule:
    def test_cancel_cnot(self):
        out = apply_rule(C([CNOT(0, 1), CNOT(0, 1)]), "CancelCNOT", 0)
        assert out.gates == ()

    def test_commute_rz_control(self):
        out = apply_rule(C([Rotation(Axis.Z, 0, 0.3), CNOT(0, 1)]), "CommuteRzControl", 0)
        assert out.gates == (CNOT(0, 1), Rotation(Axis.Z, 0, 0.3))

    def test_merge_rotations(self):
        out = apply_rule(C([Rotation(Axis.Y, 0, 0.3), Rotation(Axis.Y, 0, 0.4)]), "MergeRotations", 0)
        (g,) = out.gates
        assert isinstance(g, Rotation) and g.axis is Axis.Y and g.qubit == 0
        assert g.angle == pytest.approx(0.7)

    def test_merge_to_identity_drops_gates(self):
        out = apply_rule(C([Rotation(Axis.Y, 0, 0.3), Rotation(Axis.Y, 0, -0.3)]), "MergeRotations", 0)
        assert out.gates == ()

    def test_merge_mixed_axes_gives_generic(self):
        out = apply_rule(C([Rotation(Axis.Z, 1, 0.3), Rotation(Axis.Y, 1, 0.4)]), "MergeRotations", 0)
        assert len(out.gates) == 1 and isinstance(out.gates[0], Generic1Q)

    def test_flip_cnot_pair(self):
        before = C([CNOT(0, 1), Rotation(Axis.X, 0, 0.5), Rotation(Axis.Z, 1, 0.7), CNOT(0, 1)])
        out = apply_rule(before, "FlipCNOTPair", 0)
        assert out.gates == (
            CNOT(1, 0),
            Rotation(Axis.Z, 0, 0.7),
            Rotation(Axis.X, 1, 0.5),
            CNOT(1, 0),
        )
        assert nm.phase_distance(simulate(out), simulate(before)) <= 1e-12

    def test_axis_change_both_directions(self):
        s = Rotation(Axis.X, 0, math.pi / 2)
        before = C([Rotation(Axis.Y, 0, 0.4), s])
        out = apply_rule(before, "AxisChange", 0)
        assert nm.phase_distance(simulate(out), simulate(before)) <= 1e-12
        back = apply_rule(out, "AxisChange", 0)
        assert nm.phase_distance(simulate(back), simulate(before)) <= 1e-12

    def test_move_sigma_x_round_trip(self):
        before = C([Generic1Q(0, nm.SIGMA_X), CNOT(0, 1)])
        out = apply_rule(before, "MoveSigmaX", 0)
        assert len(out.gates) == 3
        assert nm.phase_distance(simulate(out), simulate(before)) <= 1e-12
        back = apply_rule(out, "MoveSigmaX", 0)
        assert len(back.gates) == 2
        assert nm.phase_distance(simulate(back), simulate(before)) <= 1e-12

    def test_mirror_gate_exchanges_the_wires_of_each_gate_type(self):
        # The gates that move through a SWAP, the only ones mirrored.
        for g in (CNOT(0, 1), Rotation(Axis.Y, 0, 0.3), Generic1Q(1, rotation_matrix2(Axis.X, 0.7))):
            mirrored = nm.SWAP_MAT @ simulate(C([g])) @ nm.SWAP_MAT
            assert np.allclose(simulate(C([_mirror_gate(g)])), mirrored, atol=1e-14)
            assert _mirror_gate(_mirror_gate(g)) == g

    def test_no_match_raised(self):
        with pytest.raises(NoMatch):
            apply_rule(C([CNOT(0, 1), CNOT(1, 0)]), "CancelCNOT", 0)
        with pytest.raises(NoMatch):
            apply_rule(C([CNOT(0, 1)]), "CancelCNOT", 5)
        with pytest.raises(NoMatch):
            apply_rule(C([CNOT(0, 1)]), "NotARule", 0)

    def test_every_application_preserves_semantics(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            c = random_circuit(rng, max_len=8)
            for pos in range(len(c.gates)):
                for rule in RULES.values():
                    hit = rule.match(c.gates, pos)
                    if hit is None:
                        continue
                    out = apply_rule(c, rule, pos)
                    err = nm.phase_distance(simulate(out), simulate(c))
                    assert err <= 1e-11, (rule.id, err)
                    checked += 1
        assert checked > 200


class TestReduce:
    def test_three_alternating_cnots_become_swap(self):
        out, trace = reduce(C([CNOT(0, 1), CNOT(1, 0), CNOT(0, 1)]))
        assert out.gates == (Swap(),)
        assert trace.initial_gate_count == 3
        assert trace.final_gate_count == 1

    def test_commute_then_merge(self):
        out, _ = reduce(C([Rotation(Axis.X, 1, 0.4), CNOT(0, 1), Rotation(Axis.X, 1, 0.5)]))
        assert out.gates[0] == CNOT(0, 1)
        assert isinstance(out.gates[1], Rotation) and out.gates[1].angle == pytest.approx(0.9)
        assert len(out.gates) == 2

    def test_cancel_pair(self):
        out, _ = reduce(C([CNOT(0, 1), CNOT(0, 1)]))
        assert out.gates == ()

    def test_fixed_point_is_unchanged(self):
        c = C([CNOT(0, 1), Rotation(Axis.X, 0, 0.4), CNOT(0, 1)])
        first, _ = reduce(c)
        again, trace = reduce(first)
        assert again.gates == first.gates
        assert trace.steps == ()

    def test_semantics_never_grows_and_replays(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = random_circuit(rng)
            out, trace = reduce(c)
            assert len(out.gates) <= len(c.gates)
            assert nm.phase_distance(simulate(out), simulate(c)) <= 1e-10
            assert replay(c, trace).gates == out.gates
            assert trace.initial_gate_count == len(c.gates)
            assert trace.final_gate_count == len(out.gates)

    def test_swaps_accumulate_at_the_end(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = random_circuit(rng)
            out, _ = reduce(c)
            seen_swap = False
            for g in out.gates:
                if isinstance(g, Swap):
                    seen_swap = True
                else:
                    assert not seen_swap, out.gates

    def test_merges_gates_at_the_unitarity_tolerance(self):
        # Each gate is 9.6e-9 from unitary and passes the input check; their
        # product is 1.9e-8 from unitary and must not be checked again.
        rng = np.random.default_rng(5)
        scale = 1.0 + 9.6e-9 / (2.0 * math.sqrt(2.0))
        c = C([Generic1Q(0, scale * nm.haar_unitary(2, rng)) for _ in range(2)])
        out, trace = reduce(c)
        assert trace.steps == (("MergeRotations", 0),)
        for result in (out, parse_circuit(circuit_to_text(out))):
            assert nm.phase_distance(simulate(result), simulate(c)) <= 2 * nm.UNITARY_TOL

    def test_rejects_a_non_gate(self):
        with pytest.raises(TypeError, match="not a gate: 'junk'"):
            reduce(C([CNOT(0, 1), "junk", CNOT(0, 1), CNOT(0, 1)]))
        with pytest.raises(TypeError, match="not a gate"):
            reduce(C(["junk"]))

    def test_dispatch_lists_every_rule_that_can_fire(self):
        # A window's rules are looked up by the exact types of its two
        # gates; a rule left out of a type pair must never fire on it.
        gates = [g for rule in RULES.values() for window in rule.samples for g in window]
        gates += long_circuit(np.random.default_rng(15), 60).gates
        assert {type(g) for g in gates} == set(GATE_TYPES)
        order = [(tier, rule_id) for tier, rule_ids in enumerate(_REDUCE_PRIORITY) for rule_id in rule_ids]
        assert all(len(RULES[rule_id].matchers[0][0]) == 2 for _, rule_id in order)
        fired = set()
        for a in gates:
            for b in gates:
                entries = _DISPATCH[type(a), type(b)]
                listed = [(tier, rule_id) for tier, rule_id, _ in entries]
                assert listed == sorted(listed, key=order.index)
                for _, rule_id, fn in entries:
                    assert fn is RULES[rule_id].matchers[0][1]
                for tier, rule_id in order:
                    if fires(RULES[rule_id].matchers[0], (a, b)) is None:
                        continue
                    assert (tier, rule_id) in listed, (rule_id, a, b)
                    fired.add(rule_id)
        assert fired == {rule_id for _, rule_id in order}

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_circuit(rng)
            once, _ = reduce(c)
            twice, trace = reduce(once)
            assert trace.steps == ()
            assert twice.gates == once.gates


class TestIncrementalReduce:
    """``reduce`` re-matches only the windows a rewrite touched; it must still
    take exactly the steps of the rescanning reference loop."""

    @staticmethod
    def assert_same_as_reference(c):
        out, trace = reduce(c)
        gates, steps = reference_reduce(c)
        assert trace.steps == steps
        # Generic1Q compares by qubit and np.array_equal of its matrix.
        assert out.gates == gates
        return trace

    def test_random_circuits_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            self.assert_same_as_reference(random_circuit(rng))

    def test_long_circuits_match_reference(self):
        rng = np.random.default_rng(12)
        fired = set()
        for n in (200, 250, 300, 400):
            trace = self.assert_same_as_reference(long_circuit(rng, n))
            fired.update(rule_id for rule_id, _ in trace.steps)
        assert {"CommuteSxTarget", "CommuteSzControl"} <= fired

    def test_match_attempts_are_linear(self, monkeypatch):
        calls = []

        def counting(fn):
            def matcher(w):
                calls.append(None)
                return fn(w)

            return matcher

        counted = {
            types: tuple((tier, rule_id, counting(fn)) for tier, rule_id, fn in entries)
            for types, entries in _DISPATCH.items()
        }
        monkeypatch.setattr(rewrite, "_DISPATCH", counted)
        c = long_circuit(np.random.default_rng(13), 400)
        _, trace = reduce(c)
        assert calls
        assert len(calls) <= 20 * (len(c.gates) + len(trace.steps))

    def test_one_qubit_tests_do_no_numpy_work_on_far_gates(self, monkeypatch):
        # Merges check unitarity in closed form, and a phase distance runs
        # only for a gate whose entry magnitudes pass the screen, which
        # refuses the Haar gates that make up most of the circuit.
        c = long_circuit(np.random.default_rng(13), 400)
        unitary_calls, distance_calls = [], []
        passed = []
        is_unitary, phase_distance, phase_close = nm.is_unitary, nm.phase_distance, rewrite._phase_close

        def counting_is_unitary(*args, **kwargs):
            unitary_calls.append(None)
            return is_unitary(*args, **kwargs)

        def counting_phase_distance(u, v):
            distance_calls.append(None)
            assert _magnitude_gap(np.ravel(u), np.ravel(v)) <= (2.0 * nm.LOCAL_TOL) ** 2
            return phase_distance(u, v)

        def counting_phase_close(e, target):
            if _magnitude_gap(e, target[0].ravel()) <= (2.0 * nm.LOCAL_TOL) ** 2:
                passed.append(None)
            return phase_close(e, target)

        monkeypatch.setattr(nm, "is_unitary", counting_is_unitary)
        monkeypatch.setattr(nm, "phase_distance", counting_phase_distance)
        monkeypatch.setattr(rewrite, "_phase_close", counting_phase_close)
        _, trace = reduce(c)
        assert {"MergeRotations", "CommuteSxTarget", "CommuteSzControl"} <= {r for r, _ in trace.steps}
        assert unitary_calls == []
        assert distance_calls
        assert len(distance_calls) <= len(passed)

    def test_first_matcher_alone_lowers_the_measure(self):
        # reduce applies only matchers[0] and keeps its cached hits while
        # windows shift, so the first matcher must lower the measure at any
        # position in any circuit length, and no other matcher may.
        rng = np.random.default_rng(14)
        pads = [long_circuit(rng, n).gates for n in (0, 1, 3, 17, 40)]
        forward_fired = set()
        for tier in _REDUCE_PRIORITY:
            for rule_id in tier:
                for window in RULES[rule_id].samples:
                    for k, matcher in enumerate(RULES[rule_id].matchers):
                        replacement = fires(matcher, window)
                        if replacement is None:
                            continue
                        if k == 0:
                            forward_fired.add(rule_id)
                        for left in pads:
                            for right in pads:
                                before = left + window + right
                                after = left + tuple(replacement) + right
                                lowers = _measure(after) < _measure(before)
                                assert lowers == (k == 0), (rule_id, k, window, len(left), len(right))
        assert forward_fired == {rule_id for tier in _REDUCE_PRIORITY for rule_id in tier}


class TestPauliTest:
    @pytest.mark.parametrize("pauli_axis", list(Axis))
    @pytest.mark.parametrize("axis", list(Axis))
    def test_verdict_equals_phase_distance_verdict(self, axis, pauli_axis):
        # _is_pauli returns False for a rotation about another axis without
        # any matrix work; the verdict must be the one the distance gives.
        pauli = {Axis.X: nm.SIGMA_X, Axis.Y: nm.SIGMA_Y, Axis.Z: nm.SIGMA_Z}[pauli_axis]
        rng = np.random.default_rng(17)
        angles = [math.pi, -math.pi, math.pi + 1e-10, math.pi - 1e-10, -math.pi + 1e-10, 0.0]
        angles += list(rng.uniform(-4.0, 4.0, 20))
        for angle in angles:
            for qubit in (0, 1):
                g = Rotation(axis, qubit, angle)
                expect = nm.phase_distance(rotation_matrix2(axis, angle), pauli) <= 1e-9
                assert _is_pauli(g, pauli_axis) == expect, (axis, pauli_axis, angle)


_PAULIS = {Axis.X: nm.SIGMA_X, Axis.Y: nm.SIGMA_Y, Axis.Z: nm.SIGMA_Z}
_QUARTER_TURNS = {axis: rotation_matrix2(axis, math.pi / 2.0) for axis in Axis}

#: Examples per property test; derandomized, with no example database, so
#: the suite draws the same gates on every run.
_PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _gate_matrix2(g):
    return rotation_matrix2(g.axis, g.angle) if isinstance(g, Rotation) else g.matrix


@st.composite
def near_special_gates(draw):
    """A Rotation or Generic1Q at phase distance log-uniform in [1e-12,
    1e-6] from a Pauli or a quarter turn, a Generic1Q at a random global
    phase."""
    axis = draw(st.sampled_from(list(Axis)))
    pauli = draw(st.booleans())
    distance = 10.0 ** draw(st.floats(-12.0, -6.0))
    qubit = draw(st.integers(0, 1))
    # The phase distance of R_n(delta) from the identity is about
    # |delta| / sqrt(2).
    delta = math.sqrt(2.0) * distance * draw(st.sampled_from((1.0, -1.0)))
    if draw(st.booleans()):
        turn = math.pi if pauli else math.pi / 2.0
        sign = draw(st.sampled_from((1.0, -1.0)))
        return Rotation(axis, qubit, sign * turn + delta)
    n = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(n)
    n = n / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
    step = math.cos(delta / 2.0) * nm.I2 - 1j * math.sin(delta / 2.0) * (
        n[0] * nm.SIGMA_X + n[1] * nm.SIGMA_Y + n[2] * nm.SIGMA_Z
    )
    target = _PAULIS[axis] if pauli else _QUARTER_TURNS[axis]
    phase = np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return Generic1Q(qubit, phase * (target @ step))


class TestScalarOneQubitTests:
    """The one-qubit tests of the rewrite rules run on four scalars behind a
    magnitude screen; their verdicts must be the ones the phase distance
    gives, right at LOCAL_TOL."""

    def test_pauli_verdict_equals_phase_distance_verdict(self):
        verdicts = set()

        @_PROPERTY
        @given(near_special_gates(), st.sampled_from(list(Axis)))
        def check(g, axis):
            expect = nm.phase_distance(_gate_matrix2(g), _PAULIS[axis]) <= nm.LOCAL_TOL
            assert _is_pauli(g, axis) == expect
            verdicts.add(expect)

        check()
        assert verdicts == {True, False}

    def test_quarter_turn_axis_equals_phase_distance_axis(self):
        answers = set()

        @_PROPERTY
        @given(near_special_gates())
        def check(g):
            m = _gate_matrix2(g)
            expect = next((a for a, s in _QUARTER_TURNS.items() if nm.phase_distance(m, s) <= nm.LOCAL_TOL), None)
            assert _s_gate_axis(g) is expect
            answers.add(expect)

        check()
        assert answers == {None, *Axis}

    def test_unitarity_residual_agrees_with_is_unitary(self):
        verdicts = set()

        def near_unitary(rng, size):
            # A Haar gate plus a random complex matrix of Frobenius norm
            # ``size``: about 2 * size or less from unitary.
            e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return nm.haar_unitary(2, rng) + size * e / np.linalg.norm(e)

        size = st.floats(0.0, nm.UNITARY_TOL / 2.0)

        @_PROPERTY
        @given(st.integers(0, 2**32 - 1), size, size)
        def check(seed, size1, size2):
            rng = np.random.default_rng(seed)
            m = near_unitary(rng, size1) @ near_unitary(rng, size2)
            residual = _unitarity_residual(m.ravel().tolist())
            exact = float(np.linalg.norm(m.conj().T @ m - nm.I2))
            assert abs(residual - exact) <= 1e-15
            # Both computations round; only a residual right at the bound
            # could tell them apart.
            if abs(exact - nm.UNITARY_TOL) > 1e-15:
                assert (residual <= nm.UNITARY_TOL) == nm.is_unitary(m)
                verdicts.add(nm.is_unitary(m))

        check()
        assert verdicts == {True, False}


class TestEffectivelySeparated:
    def test_opposite_orientation_single_rx_is_not_separated(self):
        c = C([CNOT(0, 1), Rotation(Axis.X, 0, 0.8), CNOT(1, 0)])
        assert effectively_separated(c, 8) is False

    def test_same_orientation_rx_on_control_is_separated(self):
        c = C([CNOT(1, 0), Rotation(Axis.X, 1, 0.8), CNOT(1, 0)])
        assert effectively_separated(c, 8) is True

    def test_four_cnots_three_rotations_not_separated(self):
        c = C(
            [
                CNOT(0, 1),
                Rotation(Axis.X, 0, 0.7),
                CNOT(0, 1),
                Rotation(Axis.Z, 1, 0.6),
                CNOT(0, 1),
                Rotation(Axis.X, 0, 0.5),
                CNOT(0, 1),
            ]
        )
        assert effectively_separated(c, 8) is False

    def test_a_four_gate_flip_decides(self):
        # The last two CNOTs flip only as a 4-gate window.  The flipped
        # CNOT has wire 1 as its target, so it commutes left past the two
        # Rx on wire 1 onto the first CNOT: three moves.
        c = C(
            [
                CNOT(1, 0),
                Rotation(Axis.X, 1, 0.4),
                Rotation(Axis.X, 1, -0.9),
                CNOT(1, 0),
                Rotation(Axis.X, 1, 1.3),
                Rotation(Axis.Z, 0, 0.2),
                CNOT(1, 0),
                Rotation(Axis.Z, 1, 0.7),
            ]
        )
        answers = [effectively_separated(c, d) for d in (2, 3)]
        assert answers == [reference_separated(c, d) for d in (2, 3)] == [True, False]

    def test_adjacent_cnots_fail_immediately(self):
        assert effectively_separated(C([CNOT(0, 1), CNOT(1, 0)]), 1) is False

    def test_single_gates_are_separated(self):
        assert effectively_separated(C([CNOT(0, 1)]), 1) is True
        assert effectively_separated(C([Rotation(Axis.X, 0, 0.3)]), 1) is True

    def test_monotone_in_depth(self):
        c = C(
            [
                CNOT(0, 1),
                Rotation(Axis.X, 0, 0.7),
                CNOT(0, 1),
                Rotation(Axis.Z, 1, 0.6),
                CNOT(0, 1),
                Rotation(Axis.X, 0, 0.5),
                CNOT(0, 1),
            ]
        )
        results = [effectively_separated(c, d) for d in (1, 2, 4, 8)]
        # once False, always False at higher depth
        for earlier, later in zip(results, results[1:]):
            if not earlier:
                assert not later

    def test_the_answers_of_the_gate_object_search(self):
        rng = np.random.default_rng(23)
        answers = set()
        for n in range(3, 21):
            for _ in range(6):
                c = separation_circuit(rng, n)
                for depth in DEPTHS:
                    answer = effectively_separated(c, depth)
                    assert answer is reference_separated(c, depth)
                    answers.add(answer)
        assert answers == {True, False}

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 14),
        depth=st.sampled_from(DEPTHS),
        mirror=st.booleans(),
    )
    def test_the_answer_ignores_the_angles_and_the_wire_mirror(self, seed, n, depth, mirror):
        # The reference keys its states by their angles; the answer is the
        # same on every redrawing of them, and on the mirrored circuit.
        rng = np.random.default_rng(seed)
        c = separation_circuit(rng, n)
        other = redrawn(rng, c)
        if mirror:
            other = C(_mirror_gate(g) for g in other.gates)
        answer = effectively_separated(c, depth)
        assert effectively_separated(other, depth) is answer
        assert reference_separated(other, depth) is answer

    def test_search_makes_no_match_call(self, monkeypatch):
        calls = []
        match = rewrite.RewriteRule.match

        def counting(rule, gates, pos):
            calls.append(rule.id)
            return match(rule, gates, pos)

        monkeypatch.setattr(rewrite.RewriteRule, "match", counting)
        rng = np.random.default_rng(21)
        answers = {effectively_separated(separation_circuit(rng, 10), 12) for _ in range(40)}
        assert answers == {True, False}
        assert calls == []

    def test_the_move_table_is_what_the_matchers_give(self):
        # Every window of shapes that a separation matcher's slots admit,
        # with fresh angles, matched by its rule as a gate window.
        def shape(g):
            if isinstance(g, Rotation):
                return type(g), g.axis, g.qubit
            return type(g), g.control, g.target

        symbol = {shape(g): s for s, g in enumerate(_SHAPES)}
        assert len(symbol) == 6
        rng = np.random.default_rng(22)
        windows, expected = set(), {}
        for rule_id in SEPARATION_RULES:
            rule = RULES[rule_id]
            for slots, _ in rule.matchers:
                admitted = [[s for s, g in enumerate(_SHAPES) if isinstance(g, slot)] for slot in slots]
                for window in itertools.product(*admitted):
                    windows.add(window)
                    gates = [_SHAPES[s] for s in window]
                    gates = redrawn(rng, C(gates)).gates
                    hit = rule.match(gates, 0)
                    if hit is not None:
                        assert hit[0] == len(window) and window not in expected
                        expected[window] = tuple(symbol[shape(g)] for g in hit[1])
        assert (len(windows), len(expected)) == (96, 16)
        assert _MOVES == expected

    def test_search_builds_no_mirrored_gates(self, monkeypatch):
        calls = []
        mirror_gate = rewrite._mirror_gate

        def counting(g):
            calls.append(g)
            return mirror_gate(g)

        monkeypatch.setattr(rewrite, "_mirror_gate", counting)
        rng = np.random.default_rng(20)
        answers = {effectively_separated(separation_circuit(rng, 10)) for _ in range(40)}
        assert answers == {True, False}
        assert calls == []

    def test_rejects_unsupported_gates(self):
        with pytest.raises(UnsupportedGate):
            effectively_separated(C([Swap()]), 4)
        with pytest.raises(UnsupportedGate):
            effectively_separated(C([Rotation(Axis.Y, 0, 0.3)]), 4)
        with pytest.raises(UnsupportedGate):
            effectively_separated(C([Generic1Q(0, nm.SIGMA_X)]), 4)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            effectively_separated(C([CNOT(0, 1)]), 0)


class TestQFT2Reference:
    """The corrected reference realization of the two-qubit Fourier transform."""

    QFT2 = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1, 1, -1],
            [1, -1j, -1, 1j],
        ],
        dtype=np.complex128,
    )

    @staticmethod
    def reference_circuit():
        sy = lambda s: Rotation(Axis.Y, 0, s * math.pi / 2)
        tz = lambda k: Rotation(Axis.Z, 0, k * math.pi / 4)
        return C(
            [
                sy(-1),
                tz(5),
                CNOT(1, 0),
                tz(-1),
                CNOT(0, 1),
                CNOT(1, 0),
                tz(5),
                sy(1),
            ]
        )

    def test_reference_simulates_to_qft2(self):
        assert nm.phase_distance(simulate(self.reference_circuit()), self.QFT2) <= 1e-10

    def test_merging_gives_three_1q_and_three_cnots(self):
        cur = self.reference_circuit()
        changed = True
        while changed:
            changed = False
            for pos in range(len(cur.gates)):
                try:
                    cur = apply_rule(cur, "MergeRotations", pos)
                    changed = True
                    break
                except NoMatch:
                    pass
        one_qubit = sum(1 for g in cur.gates if not isinstance(g, CNOT))
        cnots = sum(1 for g in cur.gates if isinstance(g, CNOT))
        assert (one_qubit, cnots) == (3, 3)
        assert nm.phase_distance(simulate(cur), self.QFT2) <= 1e-10
