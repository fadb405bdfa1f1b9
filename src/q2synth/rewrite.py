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

A one-qubit gate commutes with C[c->t] exactly when it commutes with Z on
the control or with X on the target, and one rule per line says so
(``CommuteRzControl``, ``CommuteRxTarget``): a rotation fits by its axis,
and a Generic1Q by the structure of its entries, diagonal on the control
and a I + b X on the target.

Each matcher declares its window once, as a tuple of slot types, one per
gate; ``RewriteRule.match`` checks them, so a matcher function sees only
windows of its types.  ``reduce`` and the separation search run on gate
symbols: a symbol is a small int that stands for all that a forward reduce
matcher or a separation matcher reads of a gate (a CNOT's control, the
SWAP, a rotation's axis and wire, a one-qubit gate's wire and which of the
two commutations it fits).  The matchers, run at import on one gate of each
symbol, give the tables both run on.  Every forward window of a reduce rule
has two gates, and ``_WINDOWS`` gives the rule that fires first on each
pair of symbols and the symbols of its replacement, for every rule but
``MergeRotations``, whose product depends on the angles.  So ``reduce``
classifies a gate once, when it enters the circuit, reads each window's
rule from the table, and calls a matcher only to build the replacement a
step applies.  Over half of reduce's steps on random circuits move a SWAP
right, mostly the same SWAP again: once it moves, ``reduce`` walks it on
in an inner loop that reads only the windows each move changed, and hands
back to the tier search when the SWAP reaches the last gate or another
SWAP, or when its move makes a window of a tier up to its own on its left.

A Generic1Q is its four entries, Python complex values, and the rules'
one-qubit questions that ``reduce`` asks (does a gate commute with X or Z,
is a merged product the identity, or off unitary) are answered on them; the
commutation tests are exact and phase-free.  A merge multiplies the entries
of its two gates and keeps the product as the merged gate's entries, so
``reduce`` builds no array and reads none back; only a product further than
UNITARY_TOL from unitary goes through NumPy, for one polar step.  Whether
a gate is a Pauli or a quarter turn is one test, ``_turn_axis``: its phase
distance to that matrix, at LOCAL_TOL.  Only ``MoveSigmaX``, ``MoveSigmaZ``
and ``AxisChange`` ask, and neither ``reduce`` nor the separation search
applies them.

``effectively_separated`` answers whether commutation and CNOT-pair-flip
rewrites can make two CNOTs adjacent, by breadth-first search with the wire
mirror folded out.  No separation rule reads an angle, and each rewrite
carries every angle along with its gate, so dropping the angles maps the
search graph onto the graph of the circuit's symbols move for move, at the
same distance from an adjacent CNOT pair.  The search runs on the symbols.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem

import numpy as np

from . import numerics as nm
from .circuit import (
    _CNOTS,
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    _cross,
    _entries,
    _matrix2,
    _mul2,
    rotation_matrix2,
    simulate,
    wrap_angle,
)
from .errors import NoMatch, UnsupportedGate

_ONE_QUBIT = (Rotation, Generic1Q)


#: {turn: {axis: matrix}} of the fixed turns the rules ask about: the half
#: turn, R_a(pi) up to phase, as the Pauli matrix, and the quarter turn.
_FIXED_TURNS = {
    math.pi: dict(zip(Axis, (nm.SIGMA_X, nm.SIGMA_Y, nm.SIGMA_Z))),
    math.pi / 2.0: {axis: rotation_matrix2(axis, math.pi / 2.0) for axis in Axis},
}


def _turn_axis(g, turn):
    """The axis a such that the one-qubit gate g is the fixed ``turn``
    about a (``_FIXED_TURNS``) up to global phase, at LOCAL_TOL, else None;
    no gate is near the same turn about two axes."""
    m = _matrix2(_entries(g))
    for axis, target in _FIXED_TURNS[turn].items():
        if nm.phase_distance(m, target) <= nm.LOCAL_TOL:
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
    """A CNOT, Rotation or Generic1Q with its wires exchanged; the mirror of
    a CNOT is the shared CNOT whose control is its target."""
    if type(g) is Generic1Q:
        return Generic1Q._trusted(1 - g.qubit, g.entries)
    if type(g) is Rotation:
        return Rotation._trusted(g.axis, 1 - g.qubit, g.angle)
    return _CNOTS[g.target]


_X, _Y = Axis.X, Axis.Y
#: The symbol of the first Generic1Q; see ``_symbol``.
_GENERIC = 9
#: A one-qubit gate m is sqrt((|m00 - m11|^2 + |m01 - m10|^2) / 2) from the
#: nearest a I + b X in the Frobenius norm, and sqrt(|m01|^2 + |m10|^2) from
#: the nearest diagonal matrix.  A commutation test holds where its distance
#: is at most LOCAL_TOL; then the gate's products with the CNOT in the two
#: orders differ by at most 2 LOCAL_TOL.
_TOL2 = nm.LOCAL_TOL**2
_TWO_TOL2 = 2.0 * _TOL2
#: |m01 - m10|^2 <= 2 (|m01|^2 + |m10|^2), so a Generic1Q whose
#: |m01 - m10|^2 exceeds (2 LOCAL_TOL)^2 fails both commutation tests, by a
#: margin that rounding cannot cross.
_SCREEN = (2.0 * nm.LOCAL_TOL) ** 2


def _symbol(g):
    """The symbol of the gate g; TypeError for anything else.

    A CNOT's is its control (0, 1), the SWAP's 2, and a rotation's 3-8 by
    axis and wire.  A Generic1Q's is _GENERIC + 4 qubit + x + 2 z, where x
    says it commutes with X, as a I + b X, and z that it commutes with Z,
    as a diagonal gate: both to LOCAL_TOL on its entries, up to phase.
    """
    t = type(g)
    if t is Generic1Q:
        a, b, c, d = g.entries
        gap = abs(b - c) ** 2
        if gap > _SCREEN:
            return _GENERIC + 4 * g.qubit
        x = abs(a - d) ** 2 + gap <= _TWO_TOL2
        z = abs(b) ** 2 + abs(c) ** 2 <= _TOL2
        return _GENERIC + 4 * g.qubit + x + 2 * z
    if t is CNOT:
        return g.control
    if t is Rotation:
        a = g.axis
        return (3 if a is _X else 5 if a is _Y else 7) + g.qubit
    if t is Swap:
        return 2
    raise TypeError("not a gate: %r" % (g,))


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
            window = tuple(gates[pos : pos + len(slots)])
            if len(window) == len(slots) and all(map(isinstance, window, slots)):
                rep = fn(window)
                if rep is not None:
                    return len(window), tuple(rep)
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


def _commute(axis, line):
    """Matchers (forward, backward) exchanging a CNOT with a one-qubit gate
    on its ``line`` ('control' or 'target') that commutes with the Pauli
    about ``axis`` there: a rotation about ``axis``, or a Generic1Q whose
    symbol says so; forward moves the CNOT left."""
    bit = 1 if axis is _X else 2

    def fits(g, c):
        if g.qubit != getattr(c, line):
            return False
        if type(g) is Rotation:
            return g.axis is axis
        return (_symbol(g) - _GENERIC) & bit

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

    return ((_ONE_QUBIT, CNOT), fw), ((CNOT, _ONE_QUBIT), bw)


def _move_pauli(axis, line):
    """Matchers (forward, backward) moving the Pauli about ``axis`` on the
    CNOT's ``line`` through it, where it becomes that Pauli on both wires."""

    def fw(w):
        g, c = w
        if g.qubit == getattr(c, line) and _turn_axis(g, math.pi) is axis:
            return [c, Rotation(axis, g.qubit, math.pi), Rotation(axis, 1 - g.qubit, math.pi)]
        return None

    def bw(w):
        c, g1, g2 = w
        if _turn_axis(g1, math.pi) is axis and _turn_axis(g2, math.pi) is axis and g1.qubit != g2.qubit:
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
        return [Rotation._trusted(g1.axis, g1.qubit, angle)]
    p = _mul2(_entries(g2), _entries(g1))
    if nm._is_identity_up_to_phase(p):
        return []
    # Each factor may be UNITARY_TOL from unitary, and so their product
    # twice that; one polar step then takes it back to rounding.  A NaN
    # residual takes the step too.
    if not _unitarity_residual(p) <= nm.UNITARY_TOL:
        p = tuple(nm._polar_step(_matrix2(p)).ravel().tolist())
    return [Generic1Q._trusted(g1.qubit, p)]


def _axis_change(rotation_first):
    """Matcher moving a rotation through a quarter turn S_a on its wire,
    from the window's first slot if ``rotation_first``, else from its
    second: S_a R_n(t) = R_{n'}(sign t) S_a for a x n = sign n', and read
    backward, R_{n'}(v) S_a = S_a R_n(sign v) for n' x a = sign n."""

    def fn(w):
        r, s = w if rotation_first else w[::-1]
        if r.qubit != s.qubit:
            return None
        a = _turn_axis(s, math.pi / 2.0)
        if a is None or a is r.axis:
            return None
        new_axis, sign = _cross(a, r.axis) if rotation_first else _cross(r.axis, a)
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
            _commute(Axis.X, "target"),
            [
                [Rotation(Axis.X, 1, a1), CNOT(0, 1)],
                [Generic1Q(0, np.exp(0.4j) * nm.SIGMA_X), CNOT(1, 0)],
                [CNOT(1, 0), Rotation(Axis.X, 0, a2)],
                [CNOT(0, 1), Generic1Q(1, np.exp(-1.1j) * rotation_matrix2(Axis.X, a1))],
            ],
        ),
        _rule(
            "CommuteRzControl",
            _commute(Axis.Z, "control"),
            [
                [Rotation(Axis.Z, 0, a1), CNOT(0, 1)],
                [Generic1Q(1, np.exp(0.4j) * rotation_matrix2(Axis.Z, a2)), CNOT(1, 0)],
                [CNOT(1, 0), Rotation(Axis.Z, 1, a2)],
                [CNOT(0, 1), Generic1Q(0, np.exp(-1.1j) * nm.SIGMA_Z)],
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
            [_axis_change(True), _axis_change(False)],
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
    ("CommuteRxTarget", "CommuteRzControl"),
)

#: A gate of each symbol, indexed by the symbol (see ``_symbol``).  No
#: reduce or separation rule reads more of a gate to decide whether it
#: fires, and a rotation fits a commutation by its axis alone.
_GATE_SYMBOLS = (
    (CNOT(0, 1), CNOT(1, 0), Swap())
    + tuple(Rotation(axis, q, 1.0) for axis in Axis for q in (0, 1))
    + tuple(
        Generic1Q(q, m)
        for q in (0, 1)
        # It fits neither commutation, X's, Z's, both.
        for m in [rotation_matrix2(axis, 1.0) for axis in (Axis.Y, Axis.X, Axis.Z)] + [nm.I2]
    )
)


def _rewrites(matcher, symbols):
    """(window, replacement) for each window of gates of ``_GATE_SYMBOLS``,
    one of each symbol in ``symbols`` per slot, that the (slots, fn)
    matcher admits and rewrites; the window as its symbols."""
    slots, fn = matcher
    admitted = [[s for s in symbols if isinstance(_GATE_SYMBOLS[s], slot)] for slot in slots]
    for window in itertools.product(*admitted):
        rep = fn(tuple(_GATE_SYMBOLS[s] for s in window))
        if rep is not None:
            yield window, rep


def _reduce_windows():
    """_WINDOWS[a][b]: for the window of a gate of symbol a, then one of
    symbol b, the first forward matcher in ``_REDUCE_PRIORITY`` order that
    fires, as (1 + tier, rule_id, matcher fn, the replacement's symbols),
    or None when none fires.  A merge's replacement symbols are None: it
    drops the gates or keeps one, as the angles decide, so ``reduce``
    classifies the gate it builds."""
    if any(_symbol(g) != s for s, g in enumerate(_GATE_SYMBOLS)):
        raise RuntimeError("reduce symbols are not what their gates give")
    n = len(_GATE_SYMBOLS)
    table = [[None] * n for _ in range(n)]
    for tier, rule_ids in enumerate(_REDUCE_PRIORITY):
        for rule_id in rule_ids:
            matcher = RULES[rule_id].matchers[0]
            for (a, b), rep in _rewrites(matcher, range(n)):
                if table[a][b] is None:
                    out = None if rule_id == "MergeRotations" else tuple(map(_symbol, rep))
                    table[a][b] = (tier + 1, rule_id, matcher[1], out)
    return tuple(map(tuple, table))


_WINDOWS = _reduce_windows()
#: _CODES[a][b] is _WINDOWS[a][b]'s 1 + tier, or 0 where no rule fires.
_CODES = tuple(bytes(e[0] if e else 0 for e in row) for row in _WINDOWS)
#: The SWAP's symbol, and the code of its window with a gate of any other
#: type: the tier of the moves that carry a SWAP right, one gate a step.
_SWAP = _symbol(Swap())
_MOVE = _CODES[_SWAP][0]


def reduce(c):
    """Greedy fixed-point reduction; returns (circuit, ReductionTrace).

    Each step applies the first reducing-direction match in (tier, position,
    rule-within-tier) order, so commutations only move CNOTs leftward and
    SWAPs only move rightward; the reduction terminates and never grows the
    circuit.

    The loop runs on the gates' symbols (see the module docstring): each
    gate is classified once, when it enters the circuit, and each window's
    rule is read from ``_WINDOWS``.  A step calls that rule's matcher once,
    to build the replacement it applies.

    When the step found is a SWAP's move right, the SWAP walks (``_walk``):
    it moves one gate a step, reading only the three windows each move
    changed, and hands back to the tier search when it reaches the last
    gate, meets another SWAP, or leaves on its left a window of its own
    tier or a lower one (a merge or cancellation the mirrored gate made
    possible, or a CNOT pair that forms a SWAP).  Each move is the step the
    search would have chosen, so the steps and the trace are the same.
    """
    gates = list(c.gates)
    syms = [_symbol(g) for g in gates]
    windows, codes = _WINDOWS, _CODES
    # tiers[p] is 1 + the tier of the rule that fires first on the window of
    # gates p, p + 1, or 0, so the first position of the lowest tier with a
    # hit is a C-speed find: the step that trying every tier in turn would
    # choose.  A rewrite at pos changes only the windows that start in
    # [pos - 1, pos + len(replacement)); later codes shift with the gates.
    tiers = bytearray(map(getitem, map(codes.__getitem__, syms), syms[1:]))
    initial = len(gates)
    steps = []
    while True:
        for code in range(1, len(_REDUCE_PRIORITY) + 1):
            pos = tiers.find(code)
            if pos >= 0:
                break
        else:
            break
        if code == _MOVE and syms[pos] == _SWAP:
            _walk(gates, syms, tiers, steps, pos)
            continue
        _, rule_id, fn, out = windows[syms[pos]][syms[pos + 1]]
        replacement = fn((gates[pos], gates[pos + 1]))
        gates[pos : pos + 2] = replacement
        syms[pos : pos + 2] = [_symbol(g) for g in replacement] if out is None else out
        steps.append((rule_id, pos))
        lo = pos - 1 if pos else 0
        touched = syms[lo : pos + len(replacement) + 1]
        tiers[lo : pos + 2] = bytes(map(getitem, map(codes.__getitem__, touched), touched[1:]))
    trace = ReductionTrace(steps=tuple(steps), initial_gate_count=initial, final_gate_count=len(gates))
    return Circuit(tuple(gates)), trace


def _walk(gates, syms, tiers, steps, pos):
    """Move the SWAP at ``pos`` right, one gate a step, while each move is
    the step ``reduce`` would choose (see there), updating its gates,
    symbols, window codes and steps in place; the SWAP's last position.

    The first move's window is the first of the SWAP's tier, and no window
    of a lower tier exists.  A move changes only windows pos - 1 to pos + 1,
    so the next step is the next move unless one of them now holds a lower
    tier or an earlier window of the SWAP's.  The window at pos ends in the
    SWAP, which ends no forward window but its cancellation's, so only the
    one at pos - 1 can: a merge or cancellation the mirrored gate made
    possible, or a CNOT pair that forms a SWAP.  A commutation there waits.
    """
    codes = _CODES
    moves, move_codes = _WINDOWS[_SWAP], codes[_SWAP]
    last = len(gates) - 1
    while True:
        _, rule_id, fn, out = moves[syms[pos + 1]]
        gates[pos], gates[pos + 1] = fn((gates[pos], gates[pos + 1]))
        syms[pos], syms[pos + 1] = out
        steps.append((rule_id, pos))
        tiers[pos] = codes[out[0]][_SWAP]
        left = 0
        if pos:
            left = tiers[pos - 1] = codes[syms[pos - 1]][out[0]]
        pos += 1
        if pos == last:
            return pos
        code = tiers[pos] = move_codes[syms[pos + 1]]
        if code != _MOVE or 0 < left <= _MOVE:
            return pos


def replay(c, trace):
    """Re-apply a trace's steps; reproduces reduce's output circuit."""
    out = c
    for rule_id, pos in trace.steps:
        out = apply_rule(out, rule_id, pos)
    return out


# ---------------------------------------------------------------------------
# bounded search for effective separation


_SEPARATION_RULES = ("CommuteRxTarget", "CommuteRzControl", "FlipCNOTPair")

#: The symbols the search admits: the CNOTs, and R_x and R_z on each wire.
_ADMITTED = frozenset(
    s for s, g in enumerate(_GATE_SYMBOLS) if type(g) is CNOT or type(g) is Rotation and g.axis is not _Y
)
_MIRROR = {s: _symbol(_mirror_gate(_GATE_SYMBOLS[s])) for s in _ADMITTED}


def _separation_moves():
    """{window: rewrite} on symbols, from the separation rules' matchers."""
    moves = {}
    for rule_id in _SEPARATION_RULES:
        for matcher in RULES[rule_id].matchers:
            for window, rep in _rewrites(matcher, _ADMITTED):
                if window in moves:
                    raise RuntimeError("two separation rewrites of the window %r" % (window,))
                moves[window] = tuple(map(_symbol, rep))
    return moves


_MOVES = _separation_moves()
_WINDOW_LENGTHS = sorted({len(w) for w in _MOVES})


def _cnot_pair(state):
    # The CNOTs' symbols are their controls, 0 and 1.
    return any(a < 2 and b < 2 for a, b in zip(state, state[1:]))


def effectively_separated(c, depth_limit=8):
    """True if no sequence of ≤ depth_limit commutation/flip rewrites makes
    two CNOTs adjacent, else False; a True answer is a certificate only up
    to depth_limit.  Only CNOT, R_x and R_z gates are allowed (the setting
    where the rule set is meaningful); anything else raises UnsupportedGate.
    The search runs on the circuit's symbols, up to relabeling the two
    wires (see the module docstring).
    """
    depth_limit = nm.require_count(depth_limit, "depth_limit")
    start = tuple(_symbol(g) if type(g) in (CNOT, Rotation) else None for g in c.gates)
    if not _ADMITTED.issuperset(start):
        raise UnsupportedGate("effective separation is defined over CNOT/R_x/R_z gates only")
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
