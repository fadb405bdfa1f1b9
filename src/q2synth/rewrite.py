"""Circuit rewrite rules, a greedy reducer, and a CNOT-adjacency search.

Every rule is a local window rewrite that preserves the simulated matrix up
to global phase; all registered rules are re-verified numerically on sample
instances when this module is imported (``rule_residual``), so a broken
identity cannot ship.

``reduce`` applies rules greedily in priority order (cancellations, then
rotation merging, then SWAP pushing, then commutations) under a strictly
decreasing lexicographic measure -- (gate count, CNOT position sum, SWAP
distance from the right end) -- which both forces termination and picks the
measure-decreasing direction of each bidirectional rule.  SWAPs therefore
accumulate at the end of the circuit.

``effectively_separated`` answers whether commutation and CNOT-pair-flip
rewrites can ever make two CNOTs adjacent, by breadth-first search over the
rewrite graph with wire-relabeling symmetry folded out.  A ``True`` answer
is certified only up to the given depth limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numerics as nm
from .circuit import (
    _PAULI,
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    rotation_matrix2,
    simulate,
    wrap_angle,
)
from .errors import NoMatch, UnsupportedGate


def _one_qubit_matrix(g):
    if isinstance(g, Rotation):
        return rotation_matrix2(g.axis, g.angle)
    if isinstance(g, Generic1Q):
        return g.matrix
    return None


def _phase_close2(m, target):
    return nm.phase_distance(m, target) <= nm.LOCAL_TOL


def _is_pauli(g, axis):
    """Whether g is the Pauli matrix about ``axis``, up to global phase.

    A rotation about another axis b never is: tr(sigma_axis R_b(t)) = 0, so
    its phase distance to sigma_axis is exactly 2.
    """
    if isinstance(g, Rotation) and g.axis is not axis:
        return False
    m = _one_qubit_matrix(g)
    return m is not None and _phase_close2(m, _PAULI[axis])


_S_MATS = {axis: rotation_matrix2(axis, math.pi / 2.0) for axis in Axis}


def _s_gate_axis(g):
    """Axis a such that g is a quarter-turn rotation about a, else None."""
    m = _one_qubit_matrix(g)
    if m is None:
        return None
    for axis, s in _S_MATS.items():
        if _phase_close2(m, s):
            return axis
    return None


def _mirror_gate(g):
    if isinstance(g, Rotation):
        return Rotation(g.axis, 1 - g.qubit, g.angle)
    if isinstance(g, Generic1Q):
        return Generic1Q._trusted(1 - g.qubit, g.matrix)
    if isinstance(g, CNOT):
        return CNOT(g.target, g.control)
    return g


@dataclass(frozen=True)
class RewriteRule:
    """A window rewrite: ``matchers`` maps a gate window to its replacement.

    Each matcher is (window_length, fn); fn returns the replacement gate
    list or None.  Rules with matchers for both reading directions are
    bidirectional.  ``samples`` produces concrete windows used to verify
    the rule numerically at registration time.
    """

    id: str
    arity: tuple
    direction: str
    matchers: tuple
    samples: tuple

    def match(self, gates, pos):
        """(consumed_length, replacement) for the first matcher that fires."""
        for length, fn in self.matchers:
            if pos + length > len(gates):
                continue
            rep = fn(tuple(gates[pos : pos + length]))
            if rep is not None:
                return length, tuple(rep)
        return None


# ---------------------------------------------------------------------------
# rule matchers


def _cancel_cnot(w):
    a, b = w
    if isinstance(a, CNOT) and isinstance(b, CNOT) and a.control == b.control and a.target == b.target:
        return []
    return None


def _cancel_swap(w):
    if isinstance(w[0], Swap) and isinstance(w[1], Swap):
        return []
    return None


def _cnot_pair_to_swap(w):
    a, b = w
    if isinstance(a, CNOT) and isinstance(b, CNOT) and a.control == b.target and a.target == b.control:
        return [b, Swap()]
    return None


def _cnot_pair_from_swap(w):
    a, b = w
    if isinstance(a, CNOT) and isinstance(b, Swap):
        return [CNOT(a.target, a.control), a]
    return None


def _commute_rot_cnot(axis, line):
    """Rotation about ``axis`` on the CNOT's ``line`` ('control'/'target')."""

    def fw(w):
        r, c = w
        if (
            isinstance(r, Rotation)
            and r.axis is axis
            and isinstance(c, CNOT)
            and r.qubit == getattr(c, line)
        ):
            return [c, r]
        return None

    def bw(w):
        c, r = w
        if (
            isinstance(c, CNOT)
            and isinstance(r, Rotation)
            and r.axis is axis
            and r.qubit == getattr(c, line)
        ):
            return [r, c]
        return None

    return fw, bw


def _commute_pauli_cnot(axis, line):
    def on_line(g, c):
        return (
            isinstance(c, CNOT)
            and isinstance(g, (Rotation, Generic1Q))
            and g.qubit == getattr(c, line)
            and _is_pauli(g, axis)
        )

    def fw(w):
        g, c = w
        if on_line(g, c):
            return [c, g]
        return None

    def bw(w):
        c, g = w
        if on_line(g, c):
            return [g, c]
        return None

    return fw, bw


def _move_sigma_x_fw(w):
    g, c = w
    if isinstance(c, CNOT) and _is_pauli(g, Axis.X) and g.qubit == c.control:
        return [c, Rotation(Axis.X, c.control, math.pi), Rotation(Axis.X, c.target, math.pi)]
    return None


def _move_sigma_x_bw(w):
    c, g1, g2 = w
    if not isinstance(c, CNOT):
        return None
    if not (_is_pauli(g1, Axis.X) and _is_pauli(g2, Axis.X)):
        return None
    if {g1.qubit, g2.qubit} != {c.control, c.target}:
        return None
    return [Rotation(Axis.X, c.control, math.pi), c]


def _move_sigma_z_fw(w):
    g, c = w
    if isinstance(c, CNOT) and _is_pauli(g, Axis.Z) and g.qubit == c.target:
        return [c, Rotation(Axis.Z, c.target, math.pi), Rotation(Axis.Z, c.control, math.pi)]
    return None


def _move_sigma_z_bw(w):
    c, g1, g2 = w
    if not isinstance(c, CNOT):
        return None
    if not (_is_pauli(g1, Axis.Z) and _is_pauli(g2, Axis.Z)):
        return None
    if {g1.qubit, g2.qubit} != {c.control, c.target}:
        return None
    return [Rotation(Axis.Z, c.target, math.pi), c]


def _move_cnot_via_swap_fw(w):
    s, c = w
    if isinstance(s, Swap) and isinstance(c, CNOT):
        return [CNOT(c.target, c.control), s]
    return None


def _move_cnot_via_swap_bw(w):
    c, s = w
    if isinstance(c, CNOT) and isinstance(s, Swap):
        return [s, CNOT(c.target, c.control)]
    return None


def _move_1q_via_swap_fw(w):
    s, g = w
    if isinstance(s, Swap) and _one_qubit_matrix(g) is not None:
        return [_mirror_gate(g), s]
    return None


def _move_1q_via_swap_bw(w):
    g, s = w
    if isinstance(s, Swap) and _one_qubit_matrix(g) is not None:
        return [s, _mirror_gate(g)]
    return None


def _merge_rotations(w):
    g1, g2 = w
    if not (isinstance(g1, (Rotation, Generic1Q)) and isinstance(g2, (Rotation, Generic1Q))):
        return None
    if g1.qubit != g2.qubit:
        return None
    if isinstance(g1, Rotation) and isinstance(g2, Rotation) and g1.axis is g2.axis:
        angle = wrap_angle(g1.angle + g2.angle)
        if abs(angle) <= nm.ZERO_TOL:
            return []
        return [Rotation(g1.axis, g1.qubit, angle)]
    prod = _one_qubit_matrix(g2) @ _one_qubit_matrix(g1)
    if nm._is_identity_up_to_phase(prod):
        return []
    return [Generic1Q(g1.qubit, prod)]


#: Conjugating R_n by the quarter turn S_a sends the axis n around a:
#: (a, n) -> (n', sign) with R_{n'}(sign * t) = S_a R_n(t) S_a^{-1}.
_AXIS_TABLE = {
    (Axis.X, Axis.Y): (Axis.Z, 1.0),
    (Axis.X, Axis.Z): (Axis.Y, -1.0),
    (Axis.Y, Axis.X): (Axis.Z, -1.0),
    (Axis.Y, Axis.Z): (Axis.X, 1.0),
    (Axis.Z, Axis.X): (Axis.Y, 1.0),
    (Axis.Z, Axis.Y): (Axis.X, -1.0),
}

#: Reading the table right-to-left: (a, n') -> (n, sign) with
#: S_a R_n(sign * v) = R_{n'}(v) S_a.
_AXIS_TABLE_INV = {(a, np): (n, s) for (a, n), (np, s) in _AXIS_TABLE.items()}


def _axis_change_fw(w):
    r, s = w
    if not (isinstance(r, Rotation) and _one_qubit_matrix(s) is not None):
        return None
    if r.qubit != s.qubit:
        return None
    a = _s_gate_axis(s)
    if a is None or a is r.axis:
        return None
    new_axis, sign = _AXIS_TABLE[(a, r.axis)]
    return [s, Rotation(new_axis, r.qubit, sign * r.angle)]


def _axis_change_bw(w):
    s, r = w
    if not (isinstance(r, Rotation) and _one_qubit_matrix(s) is not None):
        return None
    if r.qubit != s.qubit:
        return None
    a = _s_gate_axis(s)
    if a is None or a is r.axis:
        return None
    new_axis, sign = _AXIS_TABLE_INV[(a, r.axis)]
    return [Rotation(new_axis, r.qubit, sign * r.angle), s]


def _flip_window(w):
    first, last = w[0], w[-1]
    if not (isinstance(first, CNOT) and isinstance(last, CNOT)):
        return None
    if first.control != last.control or first.target != last.target:
        return None
    c, t = first.control, first.target
    rx = rz = None
    for g in w[1:-1]:
        if isinstance(g, Rotation) and g.axis is Axis.X and g.qubit == c and rx is None:
            rx = g
        elif isinstance(g, Rotation) and g.axis is Axis.Z and g.qubit == t and rz is None:
            rz = g
        else:
            return None
    flipped = CNOT(t, c)
    mid = []
    if rz is not None:
        mid.append(Rotation(Axis.Z, c, rz.angle))
    if rx is not None:
        mid.append(Rotation(Axis.X, t, rx.angle))
    return [flipped] + mid + [flipped]


# ---------------------------------------------------------------------------
# registration


def _sx(q):
    return Generic1Q(q, nm.SIGMA_X)


def _sz(q):
    return Generic1Q(q, nm.SIGMA_Z)


def _rule(rule_id, direction, matchers, samples):
    return RewriteRule(
        id=rule_id,
        arity=tuple(sorted({length for length, _ in matchers})),
        direction=direction,
        matchers=tuple(matchers),
        samples=tuple(tuple(s) for s in samples),
    )


def _build_rules():
    a1, a2 = 0.7, -1.3
    rules = []

    rules.append(
        _rule(
            "CancelCNOT",
            "forward",
            [(2, _cancel_cnot)],
            [[CNOT(0, 1), CNOT(0, 1)], [CNOT(1, 0), CNOT(1, 0)]],
        )
    )
    rules.append(_rule("CancelSWAP", "forward", [(2, _cancel_swap)], [[Swap(), Swap()]]))
    rules.append(
        _rule(
            "CNOTPairToSWAP",
            "bidirectional",
            [(2, _cnot_pair_to_swap), (2, _cnot_pair_from_swap)],
            [
                [CNOT(0, 1), CNOT(1, 0)],
                [CNOT(1, 0), CNOT(0, 1)],
                [CNOT(0, 1), Swap()],
            ],
        )
    )

    fw, bw = _commute_rot_cnot(Axis.X, "target")
    rules.append(
        _rule(
            "CommuteRxTarget",
            "bidirectional",
            [(2, fw), (2, bw)],
            [
                [Rotation(Axis.X, 1, a1), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.X, 0, a2)],
            ],
        )
    )
    fw, bw = _commute_rot_cnot(Axis.Z, "control")
    rules.append(
        _rule(
            "CommuteRzControl",
            "bidirectional",
            [(2, fw), (2, bw)],
            [
                [Rotation(Axis.Z, 0, a1), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, a2)],
            ],
        )
    )
    fw, bw = _commute_pauli_cnot(Axis.X, "target")
    rules.append(
        _rule(
            "CommuteSxTarget",
            "bidirectional",
            [(2, fw), (2, bw)],
            [
                [_sx(1), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.X, 0, math.pi)],
            ],
        )
    )
    fw, bw = _commute_pauli_cnot(Axis.Z, "control")
    rules.append(
        _rule(
            "CommuteSzControl",
            "bidirectional",
            [(2, fw), (2, bw)],
            [
                [_sz(0), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, math.pi)],
            ],
        )
    )

    rules.append(
        _rule(
            "MoveSigmaX",
            "bidirectional",
            [(2, _move_sigma_x_fw), (3, _move_sigma_x_bw)],
            [
                [_sx(0), CNOT(0, 1)],
                [Rotation(Axis.X, 1, math.pi), CNOT(1, 0)],
                [CNOT(0, 1), _sx(0), _sx(1)],
            ],
        )
    )
    rules.append(
        _rule(
            "MoveSigmaZ",
            "bidirectional",
            [(2, _move_sigma_z_fw), (3, _move_sigma_z_bw)],
            [
                [_sz(1), CNOT(0, 1)],
                [Rotation(Axis.Z, 0, math.pi), CNOT(1, 0)],
                [CNOT(0, 1), _sz(1), _sz(0)],
            ],
        )
    )
    rules.append(
        _rule(
            "MoveCNOTviaSWAP",
            "bidirectional",
            [(2, _move_cnot_via_swap_fw), (2, _move_cnot_via_swap_bw)],
            [[Swap(), CNOT(0, 1)], [CNOT(1, 0), Swap()]],
        )
    )
    rules.append(
        _rule(
            "Move1QviaSWAP",
            "bidirectional",
            [(2, _move_1q_via_swap_fw), (2, _move_1q_via_swap_bw)],
            [
                [Swap(), Rotation(Axis.Y, 0, a1)],
                [Generic1Q(1, rotation_matrix2(Axis.X, a2) @ rotation_matrix2(Axis.Z, a1)), Swap()],
            ],
        )
    )
    rules.append(
        _rule(
            "MergeRotations",
            "forward",
            [(2, _merge_rotations)],
            [
                [Rotation(Axis.Y, 0, a1), Rotation(Axis.Y, 0, a2)],
                [Rotation(Axis.Z, 1, a1), Rotation(Axis.Z, 1, -a1)],
                [Rotation(Axis.Z, 0, a1), Rotation(Axis.Y, 0, a2)],
                [Generic1Q(1, rotation_matrix2(Axis.Y, a1)), Rotation(Axis.X, 1, a2)],
            ],
        )
    )
    rules.append(
        _rule(
            "AxisChange",
            "bidirectional",
            [(2, _axis_change_fw), (2, _axis_change_bw)],
            [
                [Rotation(Axis.Y, 0, a1), Rotation(Axis.X, 0, math.pi / 2.0)],
                [Rotation(Axis.Z, 1, a2), Rotation(Axis.X, 1, math.pi / 2.0)],
                [Rotation(Axis.X, 0, a1), Rotation(Axis.Y, 0, math.pi / 2.0)],
                [Rotation(Axis.Z, 0, a2), Rotation(Axis.Y, 0, math.pi / 2.0)],
                [Rotation(Axis.X, 1, a1), Rotation(Axis.Z, 1, math.pi / 2.0)],
                [Rotation(Axis.Y, 1, a2), Rotation(Axis.Z, 1, math.pi / 2.0)],
                [Rotation(Axis.X, 0, math.pi / 2.0), Rotation(Axis.Y, 0, a1)],
            ],
        )
    )
    rules.append(
        _rule(
            "FlipCNOTPair",
            "bidirectional",
            [(4, _flip_window), (3, _flip_window)],
            [
                [CNOT(0, 1), Rotation(Axis.X, 0, a1), Rotation(Axis.Z, 1, a2), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.X, 1, a1), Rotation(Axis.Z, 0, a2), CNOT(1, 0)],
                [CNOT(0, 1), Rotation(Axis.X, 0, a1), CNOT(0, 1)],
                [CNOT(0, 1), Rotation(Axis.Z, 1, a2), CNOT(0, 1)],
            ],
        )
    )
    return {r.id: r for r in rules}


RULES = _build_rules()


def rule_residual():
    """The largest phase distance between a sample window of a rule and its
    rewrite, over every sample of every rule in ``RULES``; RuntimeError when
    a rule does not rewrite the whole of its own sample."""
    worst = 0.0
    for rule in RULES.values():
        for window in rule.samples:
            hit = rule.match(window, 0)
            if hit is None or hit[0] != len(window):
                raise RuntimeError("rewrite rule %s failed to match its own sample" % rule.id)
            before = simulate(Circuit(tuple(window)))
            worst = max(worst, nm.phase_distance(simulate(Circuit(hit[1])), before))
    return worst


if (_worst := rule_residual()) > nm.ZERO_TOL:
    raise RuntimeError("rewrite rules are numerically unsound (%.3g)" % _worst)


# ---------------------------------------------------------------------------
# reducer


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple
    initial_gate_count: int
    final_gate_count: int


def apply_rule(c, rule, pos):
    """Apply ``rule`` (object or id) at gate index ``pos``; NoMatch if it doesn't fit."""
    if isinstance(rule, str):
        try:
            rule = RULES[rule]
        except KeyError:
            raise NoMatch("unknown rule id %r" % rule) from None
    if pos < 0 or pos >= max(len(c.gates), 1):
        raise NoMatch("position %d out of range" % pos)
    hit = rule.match(c.gates, pos)
    if hit is None:
        raise NoMatch("rule %s does not match at position %d" % (rule.id, pos))
    length, replacement = hit
    return Circuit(c.gates[:pos] + replacement + c.gates[pos + length :])


_REDUCE_PRIORITY = (
    ("CancelCNOT", "CancelSWAP"),
    ("MergeRotations",),
    ("CNOTPairToSWAP", "MoveCNOTviaSWAP", "Move1QviaSWAP"),
    ("CommuteRxTarget", "CommuteRzControl", "CommuteSxTarget", "CommuteSzControl"),
)

#: How far left of a rewritten span a window can start and still overlap it.
_REACH = max(a for tier in _REDUCE_PRIORITY for rule_id in tier for a in RULES[rule_id].arity) - 1


def _lowers_measure(window, replacement, pos, n):
    """Whether replacing ``window`` at ``pos`` of an ``n``-gate circuit lowers
    the measure (gate count, CNOT index sum, SWAP distance from the end).

    Gates outside the window keep their index unless the length changes, and
    then the gate count alone decides, so the change is computed locally.
    """
    if len(replacement) != len(window):
        return len(replacement) < len(window)
    cnot_sum = swap_deficit = 0
    for j, (old, new) in enumerate(zip(window, replacement)):
        cnot_sum += (pos + j) * (isinstance(new, CNOT) - isinstance(old, CNOT))
        swap_deficit += (n - pos - j) * (isinstance(new, Swap) - isinstance(old, Swap))
    return (cnot_sum, swap_deficit) < (0, 0)


def _first_hit(tier, gates, pos):
    """(rule_id, length, replacement) of the first rule of ``tier`` whose
    match at ``pos`` lowers the measure, else None."""
    for rule_id in tier:
        hit = RULES[rule_id].match(gates, pos)
        if hit is not None:
            length, replacement = hit
            if _lowers_measure(gates[pos : pos + length], replacement, pos, len(gates)):
                return rule_id, length, replacement
    return None


def reduce(c):
    """Greedy fixed-point reduction; returns (circuit, ReductionTrace).

    Each step applies the first measure-decreasing rule application in
    (tier, position, rule-within-tier) order, so commutations only move
    CNOTs leftward and SWAPs only move rightward; the reduction terminates
    and never grows the circuit.
    """
    gates = list(c.gates)
    initial = len(gates)
    steps = []
    # hits[t][p] caches _first_hit of tier t at position p, and found[t][p]
    # is 1 where it is not None, so the first hit is a C-speed find.  A
    # rewrite at pos only changes windows that start in [pos - _REACH,
    # pos + len(replacement)); later entries shift with the gates and are
    # kept.  Keeping them is exact only because no verdict of
    # _lowers_measure for these rules depends on where the window sits or
    # on the circuit length: a same-length rewrite that changes the number
    # of CNOTs or SWAPs moves them the way its index sums already point.
    hits = [[_first_hit(tier, gates, p) for p in range(len(gates))] for tier in _REDUCE_PRIORITY]
    found = [bytearray(h is not None for h in tier_hits) for tier_hits in hits]
    while True:
        for tier_hits, flags in zip(hits, found):
            pos = flags.find(1)
            if pos >= 0:
                break
        else:
            break
        rule_id, length, replacement = tier_hits[pos]
        gates[pos : pos + length] = replacement
        steps.append((rule_id, pos))
        lo, old_end, new_end = max(pos - _REACH, 0), pos + length, pos + len(replacement)
        for tier, tier_hits, flags in zip(_REDUCE_PRIORITY, hits, found):
            fresh = [_first_hit(tier, gates, p) for p in range(lo, new_end)]
            tier_hits[lo:old_end] = fresh
            flags[lo:old_end] = bytes(h is not None for h in fresh)
    trace = ReductionTrace(steps=tuple(steps), initial_gate_count=initial, final_gate_count=len(gates))
    return Circuit(tuple(gates)), trace


def replay(c, trace):
    """Re-apply a trace's steps; reproduces reduce's output circuit."""
    out = c
    for rule_id, pos in trace.steps:
        out = apply_rule(out, rule_id, pos)
    return out


# ---------------------------------------------------------------------------
# bounded search for effective separation


_SEPARATION_RULES = ("CommuteRxTarget", "CommuteRzControl", "FlipCNOTPair")


def _gate_key(g):
    if isinstance(g, Rotation):
        return ("r", g.axis.value, g.qubit, round(g.angle, 10))
    return ("c", g.control, g.target)


def _canonical_key(gates):
    direct = tuple(_gate_key(g) for g in gates)
    mirrored = tuple(_gate_key(_mirror_gate(g)) for g in gates)
    return min(direct, mirrored)


def _has_adjacent_cnots(gates):
    return any(
        isinstance(gates[i], CNOT) and isinstance(gates[i + 1], CNOT)
        for i in range(len(gates) - 1)
    )


def effectively_separated(c, depth_limit=8):
    """True if no sequence of ≤ depth_limit commutation/flip rewrites makes
    two CNOTs adjacent; False as soon as some reachable circuit has an
    adjacent CNOT pair.

    Only CNOT, R_x and R_z gates are allowed (the setting where the rule
    set is meaningful); anything else raises UnsupportedGate.  Circuits
    equal up to relabeling the two wires are identified, which keeps the
    search finite.  A True answer is a certificate only up to depth_limit.
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    for g in c.gates:
        if isinstance(g, CNOT):
            continue
        if isinstance(g, Rotation) and g.axis in (Axis.X, Axis.Z):
            continue
        raise UnsupportedGate("effective separation is defined over CNOT/R_x/R_z gates only")

    start = tuple(c.gates)
    if _has_adjacent_cnots(start):
        return False
    seen = {_canonical_key(start)}
    frontier = [start]
    for _ in range(depth_limit):
        nxt = []
        for gates in frontier:
            for pos in range(len(gates)):
                for rule_id in _SEPARATION_RULES:
                    hit = RULES[rule_id].match(gates, pos)
                    if hit is None:
                        continue
                    length, replacement = hit
                    candidate = gates[:pos] + replacement + gates[pos + length :]
                    key = _canonical_key(candidate)
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
