"""Circuit rewrite rules, a greedy reducer, and a CNOT-adjacency search.

Every rule is a local window rewrite that preserves the simulated matrix up
to global phase; all registered rules are re-verified numerically on sample
instances when this module is imported (``rule_residual``), so a broken
identity cannot ship.

A rule's first matcher is its forward direction, and further matchers read
the same identity backward.  ``reduce`` applies only the forward direction
of its rules, greedily in priority order (cancellations, then rotation
merging, then SWAP pushing, then commutations).  For those rules the
forward direction is declared to be the reducing one: wherever it fires, it
lowers the lexicographic measure (gate count, CNOT position sum, SWAP
distance from the right end), so the reduction terminates, CNOTs move left
and SWAPs accumulate at the end of the circuit.  The tests check this on
every sample of every rule ``reduce`` uses.

Each matcher declares its window once, as a tuple of slot types, one per
gate; ``RewriteRule.match`` checks them, so a matcher function sees only
windows of its types.  Every forward window of a ``reduce`` rule has two
slots, so ``reduce`` looks up the rules that can fire on a window by the
types of its gates (``_DISPATCH``, built at import from those slots) and
caches only the lowest-tier hit at each position.

The rules' one-qubit questions (is a gate a Pauli or a quarter turn, is a
merged product the identity, or off unitary) are answered on the gate's four
entries as Python scalars.  A Pauli or quarter-turn test first compares the
entry magnitudes, an exact lower bound on the phase distance, and runs the
NumPy phase distance only for a gate that this screen cannot refuse.

``effectively_separated`` answers whether commutation and CNOT-pair-flip
rewrites can make two CNOTs adjacent, by breadth-first search with the wire
mirror folded out.  No separation rule reads an angle, and each rewrite
carries every angle along with its gate, so dropping the angles maps the
search graph onto the graph of the circuit's shape move for move, at the
same distance from an adjacent CNOT pair.  The search runs on the shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .circuit import (
    _PAULI,
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    _entries,
    _mul2,
    rotation_matrix2,
    simulate,
    wrap_angle,
)
from .errors import NoMatch, UnsupportedGate

_ONE_QUBIT = (Rotation, Generic1Q)


def _matrix(e):
    """The 2x2 complex128 matrix with entries e."""
    return np.array([e[:2], e[2:]], dtype=np.complex128)


def _target(m):
    """A target of the one-qubit tests: its matrix and its entry magnitudes."""
    return m, tuple(abs(x) for x in m.ravel().tolist())


#: For every phase phi, |e^{i phi} u_ij - v_ij| >= ||u_ij| - |v_ij||, so the
#: sum of the squared magnitude gaps is a lower bound on the squared phase
#: distance.  A gate is refused only above (2 LOCAL_TOL)^2, a margin that
#: rounding in the bound cannot cross, so the screen never refuses a gate
#: that the phase distance accepts.
_SCREEN = (2.0 * nm.LOCAL_TOL) ** 2


def _phase_close(e, target):
    """Whether the matrix with entries e is within LOCAL_TOL of the target's
    matrix up to global phase: the magnitude screen, then the distance."""
    m, (v0, v1, v2, v3) = target
    e0, e1, e2, e3 = e
    gap = (abs(e0) - v0) ** 2 + (abs(e1) - v1) ** 2 + (abs(e2) - v2) ** 2 + (abs(e3) - v3) ** 2
    if gap > _SCREEN:
        return False
    return nm.phase_distance(_matrix(e), m) <= nm.LOCAL_TOL


_PAULI_TARGETS = {axis: _target(m) for axis, m in _PAULI.items()}


def _is_pauli(g, axis):
    """Whether the one-qubit gate g is the Pauli matrix about ``axis``, up
    to global phase.

    A rotation about another axis b never is: tr(sigma_axis R_b(t)) = 0, so
    its phase distance to sigma_axis is exactly 2.
    """
    if isinstance(g, Rotation) and g.axis is not axis:
        return False
    return _phase_close(_entries(g), _PAULI_TARGETS[axis])


_S_TARGETS = {axis: _target(rotation_matrix2(axis, math.pi / 2.0)) for axis in Axis}


def _s_gate_axis(g):
    """Axis a such that the one-qubit gate g is a quarter-turn rotation
    about a, else None."""
    e = _entries(g)
    for axis, target in _S_TARGETS.items():
        if _phase_close(e, target):
            return axis
    return None


def _unitarity_residual(e):
    """||m^dag m - I||_F of the 2x2 matrix with entries e, in closed form."""
    a, b, c, d = e
    n0 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0
    n1 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0
    off = a.conjugate() * b + c.conjugate() * d
    return math.sqrt(n0 * n0 + n1 * n1 + 2.0 * (off.real * off.real + off.imag * off.imag))


def _mirror_gate(g):
    """A CNOT, Rotation or Generic1Q with its wires exchanged."""
    if isinstance(g, Rotation):
        return Rotation(g.axis, 1 - g.qubit, g.angle)
    if isinstance(g, Generic1Q):
        return Generic1Q._trusted(1 - g.qubit, g.matrix)
    return CNOT(g.target, g.control)


@dataclass(frozen=True)
class RewriteRule:
    """A window rewrite: ``matchers`` maps a gate window to its replacement.

    Each matcher is (slots, fn): ``slots`` holds the gate type (or tuple of
    types) of each window position, and fn, called only on a window of
    those types, returns the replacement gate list or None.  ``matchers[0]``
    is the forward direction, the only one ``reduce`` applies; for every
    rule it uses, that direction lowers reduce's measure wherever it fires.
    A bidirectional rule adds matchers that read the identity backward,
    which ``apply_rule`` and ``effectively_separated`` also try.
    ``samples`` holds concrete windows, with every type that each slot
    admits, used to verify the rule numerically at registration time.
    """

    id: str
    matchers: tuple
    samples: tuple

    def match(self, gates, pos):
        """(consumed_length, replacement) for the first matcher that fires."""
        for slots, fn in self.matchers:
            length = len(slots)
            if pos + length > len(gates):
                continue
            # Slot by slot, so a window of other types costs no tuple.
            for p, slot in enumerate(slots, pos):
                if not isinstance(gates[p], slot):
                    break
            else:
                rep = fn(tuple(gates[pos : pos + length]))
                if rep is not None:
                    return length, tuple(rep)
        return None


# ---------------------------------------------------------------------------
# rule matchers


def _cancel_cnot(w):
    a, b = w
    if a.control == b.control and a.target == b.target:
        return []
    return None


def _cancel_swap(w):
    return []


def _cnot_pair_to_swap(w):
    a, b = w
    if a.control == b.target and a.target == b.control:
        return [b, Swap()]
    return None


def _cnot_pair_from_swap(w):
    a, _ = w
    return [CNOT(a.target, a.control), a]


def _commute(axis, line, pauli):
    """Matchers (forward, backward) exchanging a CNOT with a one-qubit gate
    on its ``line`` ('control' or 'target') that commutes with it: a
    rotation about ``axis``, or if ``pauli`` any gate equal to the Pauli
    about ``axis``; forward moves the CNOT left."""
    kind = _ONE_QUBIT if pauli else Rotation

    def fits(g, c):
        if g.qubit != getattr(c, line):
            return False
        if pauli:
            return _is_pauli(g, axis)
        return g.axis is axis

    def fw(w):
        g, c = w
        if fits(g, c):
            return [c, g]
        return None

    def bw(w):
        c, g = w
        if fits(g, c):
            return [g, c]
        return None

    return ((kind, CNOT), fw), ((CNOT, kind), bw)


def _move_pauli(axis, line):
    """Matchers (forward, backward) moving the Pauli about ``axis`` on the
    CNOT's ``line`` through it, where it becomes that Pauli on both wires."""

    def fw(w):
        g, c = w
        if g.qubit == getattr(c, line) and _is_pauli(g, axis):
            return [c, Rotation(axis, g.qubit, math.pi), Rotation(axis, 1 - g.qubit, math.pi)]
        return None

    def bw(w):
        c, g1, g2 = w
        if _is_pauli(g1, axis) and _is_pauli(g2, axis) and g1.qubit != g2.qubit:
            return [Rotation(axis, getattr(c, line), math.pi), c]
        return None

    return ((_ONE_QUBIT, CNOT), fw), ((CNOT, _ONE_QUBIT, _ONE_QUBIT), bw)


def _through_swap(kind):
    """Matchers (forward, backward) moving a gate of type ``kind`` through
    a SWAP, which mirrors its wires; forward moves the SWAP right."""

    def fw(w):
        s, g = w
        return [_mirror_gate(g), s]

    def bw(w):
        g, s = w
        return [s, _mirror_gate(g)]

    return ((Swap, kind), fw), ((kind, Swap), bw)


def _merge_rotations(w):
    g1, g2 = w
    if g1.qubit != g2.qubit:
        return None
    if isinstance(g1, Rotation) and isinstance(g2, Rotation) and g1.axis is g2.axis:
        angle = wrap_angle(g1.angle + g2.angle)
        if abs(angle) <= nm.ZERO_TOL:
            return []
        return [Rotation(g1.axis, g1.qubit, angle)]
    p = _mul2(_entries(g2), _entries(g1))
    if nm._is_identity_up_to_phase(p):
        return []
    prod = _matrix(p)
    # Each factor may be UNITARY_TOL from unitary, and so their product
    # twice that; one polar step then takes it back to rounding.  A NaN
    # residual takes the step too.
    if not _unitarity_residual(p) <= nm.UNITARY_TOL:
        prod = nm._polar_step(prod)
    return [Generic1Q._trusted(g1.qubit, prod)]


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


def _axis_change(table, rotation_first):
    """Matcher moving a rotation through a quarter turn S_a on its wire,
    from the window's first slot if ``rotation_first``, else from its
    second; ``table`` gives the new axis and sign."""

    def fn(w):
        r, s = w if rotation_first else w[::-1]
        if r.qubit != s.qubit:
            return None
        a = _s_gate_axis(s)
        if a is None or a is r.axis:
            return None
        new_axis, sign = table[(a, r.axis)]
        moved = Rotation(new_axis, r.qubit, sign * r.angle)
        return [s, moved] if rotation_first else [moved, s]

    return ((Rotation, _ONE_QUBIT) if rotation_first else (_ONE_QUBIT, Rotation)), fn


def _flip_window(w):
    first, last = w[0], w[-1]
    if first.control != last.control or first.target != last.target:
        return None
    c, t = first.control, first.target
    rx = rz = None
    for g in w[1:-1]:
        if g.axis is Axis.X and g.qubit == c and rx is None:
            rx = g
        elif g.axis is Axis.Z and g.qubit == t and rz is None:
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


def _rule(rule_id, matchers, samples):
    return RewriteRule(
        id=rule_id,
        matchers=tuple(matchers),
        samples=tuple(tuple(s) for s in samples),
    )


def _build_rules():
    a1, a2 = 0.7, -1.3
    rules = [
        _rule(
            "CancelCNOT",
            [((CNOT, CNOT), _cancel_cnot)],
            [[CNOT(0, 1), CNOT(0, 1)], [CNOT(1, 0), CNOT(1, 0)]],
        ),
        _rule("CancelSWAP", [((Swap, Swap), _cancel_swap)], [[Swap(), Swap()]]),
        _rule(
            "CNOTPairToSWAP",
            [((CNOT, CNOT), _cnot_pair_to_swap), ((CNOT, Swap), _cnot_pair_from_swap)],
            [
                [CNOT(0, 1), CNOT(1, 0)],
                [CNOT(1, 0), CNOT(0, 1)],
                [CNOT(0, 1), Swap()],
            ],
        ),
        _rule(
            "CommuteRxTarget",
            _commute(Axis.X, "target", pauli=False),
            [
                [Rotation(Axis.X, 1, a1), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.X, 0, a2)],
            ],
        ),
        _rule(
            "CommuteRzControl",
            _commute(Axis.Z, "control", pauli=False),
            [
                [Rotation(Axis.Z, 0, a1), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, a2)],
            ],
        ),
        _rule(
            "CommuteSxTarget",
            _commute(Axis.X, "target", pauli=True),
            [
                [_sx(1), CNOT(0, 1)],
                [Rotation(Axis.X, 0, -math.pi), CNOT(1, 0)],
                [CNOT(1, 0), Rotation(Axis.X, 0, math.pi)],
                [CNOT(0, 1), _sx(1)],
            ],
        ),
        _rule(
            "CommuteSzControl",
            _commute(Axis.Z, "control", pauli=True),
            [
                [_sz(0), CNOT(0, 1)],
                [Rotation(Axis.Z, 1, -math.pi), CNOT(1, 0)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, math.pi)],
                [CNOT(0, 1), _sz(0)],
            ],
        ),
        _rule(
            "MoveSigmaX",
            _move_pauli(Axis.X, "control"),
            [
                [_sx(0), CNOT(0, 1)],
                [Rotation(Axis.X, 1, math.pi), CNOT(1, 0)],
                [CNOT(0, 1), _sx(0), _sx(1)],
                [CNOT(1, 0), Rotation(Axis.X, 0, math.pi), Rotation(Axis.X, 1, -math.pi)],
            ],
        ),
        _rule(
            "MoveSigmaZ",
            _move_pauli(Axis.Z, "target"),
            [
                [_sz(1), CNOT(0, 1)],
                [Rotation(Axis.Z, 0, math.pi), CNOT(1, 0)],
                [CNOT(0, 1), _sz(1), _sz(0)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, -math.pi), Rotation(Axis.Z, 0, math.pi)],
            ],
        ),
        _rule(
            "MoveCNOTviaSWAP",
            _through_swap(CNOT),
            [[Swap(), CNOT(0, 1)], [CNOT(1, 0), Swap()]],
        ),
        _rule(
            "Move1QviaSWAP",
            _through_swap(_ONE_QUBIT),
            [
                [Swap(), Rotation(Axis.Y, 0, a1)],
                [Swap(), Generic1Q(1, rotation_matrix2(Axis.Z, a2) @ rotation_matrix2(Axis.Y, a1))],
                [Generic1Q(1, rotation_matrix2(Axis.X, a2) @ rotation_matrix2(Axis.Z, a1)), Swap()],
                [Rotation(Axis.X, 0, a2), Swap()],
            ],
        ),
        _rule(
            "MergeRotations",
            [((_ONE_QUBIT, _ONE_QUBIT), _merge_rotations)],
            [
                [Rotation(Axis.Y, 0, a1), Rotation(Axis.Y, 0, a2)],
                [Rotation(Axis.Z, 1, a1), Rotation(Axis.Z, 1, -a1)],
                [Rotation(Axis.Z, 0, a1), Rotation(Axis.Y, 0, a2)],
                [Generic1Q(1, rotation_matrix2(Axis.Y, a1)), Rotation(Axis.X, 1, a2)],
                [Rotation(Axis.X, 0, a1), Generic1Q(0, rotation_matrix2(Axis.Z, a2))],
            ],
        ),
        _rule(
            "AxisChange",
            [_axis_change(_AXIS_TABLE, True), _axis_change(_AXIS_TABLE_INV, False)],
            [
                [Rotation(Axis.Y, 0, a1), Rotation(Axis.X, 0, math.pi / 2.0)],
                [Rotation(Axis.Z, 1, a2), Rotation(Axis.X, 1, math.pi / 2.0)],
                [Rotation(Axis.X, 0, a1), Rotation(Axis.Y, 0, math.pi / 2.0)],
                [Rotation(Axis.Z, 0, a2), Rotation(Axis.Y, 0, math.pi / 2.0)],
                [Rotation(Axis.X, 1, a1), Rotation(Axis.Z, 1, math.pi / 2.0)],
                [Rotation(Axis.Y, 1, a2), Rotation(Axis.Z, 1, math.pi / 2.0)],
                [Rotation(Axis.Y, 1, a1), Generic1Q(1, rotation_matrix2(Axis.Z, math.pi / 2.0))],
                [Rotation(Axis.X, 0, math.pi / 2.0), Rotation(Axis.Y, 0, a1)],
                [Generic1Q(0, rotation_matrix2(Axis.X, math.pi / 2.0)), Rotation(Axis.Z, 0, a2)],
            ],
        ),
        _rule(
            "FlipCNOTPair",
            [((CNOT, Rotation, Rotation, CNOT), _flip_window), ((CNOT, Rotation, CNOT), _flip_window)],
            [
                [CNOT(0, 1), Rotation(Axis.X, 0, a1), Rotation(Axis.Z, 1, a2), CNOT(0, 1)],
                [CNOT(1, 0), Rotation(Axis.X, 1, a1), Rotation(Axis.Z, 0, a2), CNOT(1, 0)],
                [CNOT(0, 1), Rotation(Axis.X, 0, a1), CNOT(0, 1)],
                [CNOT(0, 1), Rotation(Axis.Z, 1, a2), CNOT(0, 1)],
            ],
        ),
    ]
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

_GATE_TYPES = (Rotation, CNOT, Generic1Q, Swap)

#: (type(a), type(b)) -> the (tier, rule_id, forward matcher fn) entries
#: whose two slots admit a window (a, b), in priority order.
_DISPATCH = {
    (ta, tb): tuple(
        (tier, rule_id, fn)
        for tier, rule_ids in enumerate(_REDUCE_PRIORITY)
        for rule_id in rule_ids
        for (sa, sb), fn in RULES[rule_id].matchers[:1]
        if issubclass(ta, sa) and issubclass(tb, sb)
    )
    for ta in _GATE_TYPES
    for tb in _GATE_TYPES
}


def reduce(c):
    """Greedy fixed-point reduction; returns (circuit, ReductionTrace).

    Each step applies the first reducing-direction match in (tier, position,
    rule-within-tier) order, so commutations only move CNOTs leftward and
    SWAPs only move rightward; the reduction terminates and never grows the
    circuit.
    """
    gates = list(c.gates)
    for g in gates:
        if type(g) not in _GATE_TYPES:
            raise TypeError("not a gate: %r" % (g,))
    # hits[p] caches the lowest-tier hit at position p, and tiers[p] is 1 +
    # its tier (0 for none), so the first position of the lowest tier with
    # any hit is a C-speed find.  No position holds a hit of a tier below
    # that one, so this is the step that trying every tier in turn would
    # choose.  Every forward window has two gates: a rewrite at pos changes
    # only the windows that start in [pos - 1, pos + len(replacement));
    # later entries shift with the gates and are kept, since a match
    # depends only on its window.
    hits = []
    tiers = bytearray()

    def lowest_hit(p):
        """(tier, rule_id, replacement) of the first dispatched rule that
        fires on the window at p, else None."""
        if p + 1 < len(gates):
            a, b = gates[p], gates[p + 1]
            for tier, rule_id, fn in _DISPATCH[type(a), type(b)]:
                rep = fn((a, b))
                if rep is not None:
                    return tier, rule_id, rep
        return None

    def refresh(lo, old_end, new_end):
        """Match the windows at [lo, new_end), in place of the cached
        entries at [lo, old_end)."""
        fresh = [lowest_hit(p) for p in range(lo, new_end)]
        hits[lo:old_end] = fresh
        tiers[lo:old_end] = bytes(0 if h is None else h[0] + 1 for h in fresh)

    initial = len(gates)
    steps = []
    refresh(0, 0, initial)
    while True:
        for code in range(1, len(_REDUCE_PRIORITY) + 1):
            pos = tiers.find(code)
            if pos >= 0:
                break
        else:
            break
        _, rule_id, replacement = hits[pos]
        gates[pos : pos + 2] = replacement
        steps.append((rule_id, pos))
        refresh(max(pos - 1, 0), pos + 2, pos + len(replacement))
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

#: A gate of each shape the search admits, indexed by the shape's symbol.
_SHAPES = (CNOT(0, 1), CNOT(1, 0)) + tuple(Rotation(a, q, 1.0) for a in (Axis.X, Axis.Z) for q in (0, 1))


def _shape(g):
    """What a separation rule reads of the gate g: axis and wire, or wires."""
    if isinstance(g, Rotation):
        return g.axis, g.qubit
    return (g.control, g.target) if isinstance(g, CNOT) else None


_SYMBOL = {_shape(g): s for s, g in enumerate(_SHAPES)}
_MIRROR = tuple(_SYMBOL[_shape(_mirror_gate(g))] for g in _SHAPES)
_IS_CNOT = tuple(isinstance(g, CNOT) for g in _SHAPES)


def _separation_moves():
    """{window: rewrite} on symbols, from the separation rules' matchers."""
    moves = {}
    for rule_id in _SEPARATION_RULES:
        for slots, fn in RULES[rule_id].matchers:
            admitted = [[s for s, g in enumerate(_SHAPES) if isinstance(g, slot)] for slot in slots]
            for window in itertools.product(*admitted):
                rep = fn(tuple(_SHAPES[s] for s in window))
                if rep is not None:
                    if window in moves:
                        raise RuntimeError("two separation rewrites of the window %r" % (window,))
                    moves[window] = tuple(_SYMBOL[_shape(g)] for g in rep)
    return moves


_MOVES = _separation_moves()
_WINDOW_LENGTHS = sorted({len(w) for w in _MOVES})


def _cnot_pair(state):
    return any(_IS_CNOT[a] and _IS_CNOT[b] for a, b in zip(state, state[1:]))


def effectively_separated(c, depth_limit=8):
    """True if no sequence of ≤ depth_limit commutation/flip rewrites makes
    two CNOTs adjacent, else False; a True answer is a certificate only up
    to depth_limit.  Only CNOT, R_x and R_z gates are allowed (the setting
    where the rule set is meaningful); anything else raises UnsupportedGate.
    The search runs on the circuit's angle-free shape, up to relabeling the
    two wires (see the module docstring).
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    try:
        start = tuple(_SYMBOL[_shape(g)] for g in c.gates)
    except KeyError:
        raise UnsupportedGate("effective separation is defined over CNOT/R_x/R_z gates only") from None
    if _cnot_pair(start):
        return False
    seen = {start, tuple(_MIRROR[s] for s in start)}
    frontier = [start]
    for _ in range(depth_limit):
        nxt = []
        for state in frontier:
            for length in _WINDOW_LENGTHS:
                for pos in range(len(state) - length + 1):
                    rep = _MOVES.get(state[pos : pos + length])
                    if rep is None:
                        continue
                    candidate = state[:pos] + rep + state[pos + length :]
                    if candidate in seen:
                        continue
                    if _cnot_pair(candidate):
                        return False
                    seen.update((candidate, tuple(_MIRROR[s] for s in candidate)))
                    nxt.append(candidate)
        if not nxt:
            break
        frontier = nxt
    return True
