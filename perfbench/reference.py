"""Plain-NumPy reference used to check q2synth's outputs.

Nothing here imports q2synth.  Gates are read by their class name and public
fields (``axis``, ``qubit``, ``angle``, ``control``, ``target``, ``matrix``)
and multiplied out with matrices written down directly, so a convention slip
in q2synth's own simulator cannot hide a wrong circuit.

Conventions match the package: qubit 0 is the left Kronecker factor, gates
apply in list order (later gates multiply on the left), and
R_n(t) = exp(-i t sigma_n / 2).
"""

import math

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# |c t> basis order 00, 01, 10, 11 with qubit 0 the left factor.
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CNOT_10 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)

XX = np.kron(PAULI["x"], PAULI["x"])
YY = np.kron(PAULI["y"], PAULI["y"])
ZZ = np.kron(PAULI["z"], PAULI["z"])

PHASE_TOL = 1e-8


def rotation(axis, angle):
    """exp(-i angle sigma_axis / 2) for axis in 'x', 'y', 'z'."""
    return math.cos(angle / 2.0) * I2 - 1j * math.sin(angle / 2.0) * PAULI[axis]


def on_wire(m2, qubit):
    return np.kron(m2, I2) if qubit == 0 else np.kron(I2, m2)


def gate_matrix(g):
    """4x4 matrix of one q2synth gate, from its public fields only."""
    kind = type(g).__name__
    if kind == "Rotation":
        return on_wire(rotation(g.axis.value, g.angle), g.qubit)
    if kind == "CNOT":
        if (g.control, g.target) == (0, 1):
            return CNOT_01
        if (g.control, g.target) == (1, 0):
            return CNOT_10
        raise ValueError("CNOT on wires %r" % ((g.control, g.target),))
    if kind == "Generic1Q":
        return on_wire(np.asarray(g.matrix, dtype=np.complex128), g.qubit)
    if kind == "Swap":
        return SWAP
    raise ValueError("unknown gate type %s" % kind)


def product(gates):
    """Matrix of a gate list: gates[0] acts first."""
    m = np.eye(4, dtype=np.complex128)
    for g in gates:
        m = gate_matrix(g) @ m
    return m


def phase_distance(a, b):
    """min over phi of ||exp(i phi) a - b||_F."""
    t = np.vdot(a, b)  # sum conj(a) * b = tr(a^dag b)
    phase = 1.0 if t == 0 else t / abs(t)
    return float(np.linalg.norm(phase * a - b))


def matches(gates, u, tol=PHASE_TOL):
    return phase_distance(product(gates), u) <= tol


def count_cnots(gates):
    return sum(1 for g in gates if type(g).__name__ == "CNOT")


def basic_count(gates):
    """Gates at the CNOT + one-qubit level; a SWAP is three CNOTs."""
    return sum(3 if type(g).__name__ == "Swap" else 1 for g in gates)


# ---------------------------------------------------------------------------
# random inputs


def haar(n, rng):
    """Haar-random n x n unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def canonical(a, b, c):
    """exp(i (a XX + b YY + c ZZ)).

    XX, YY and ZZ commute and each squares to the identity, so the
    exponential is the product of cos t I + i sin t P over the three terms.
    """
    out = np.eye(4, dtype=np.complex128)
    for t, p in ((a, XX), (b, YY), (c, ZZ)):
        out = out @ (math.cos(t) * np.eye(4) + 1j * math.sin(t) * p)
    return out


def expected_cost(a, b, c, tol=1e-12):
    """CNOT count of can(a, b, c), known by construction.

    In the magic basis can(a, b, c) is diagonal with phases
    (a - b + c, -a + b + c, a + b - c, -a - b - c); gamma squares them, and
    Im tr gamma = 4 sin 2a sin 2b sin 2c up to sign.  So the point needs at
    most two CNOTs iff a coordinate is a multiple of pi/2, no CNOT iff all
    three are, and exactly one iff it is the CNOT class: one coordinate an
    odd multiple of pi/4 and the other two multiples of pi/2.
    """

    def on_grid(x, step):
        k = x / step
        return abs(k - round(k)) * step <= tol

    half = [on_grid(x, math.pi / 2.0) for x in (a, b, c)]
    if all(half):
        return 0
    quarter = [on_grid(x, math.pi / 4.0) for x in (a, b, c)]
    if sum(half) == 2 and all(quarter):
        return 1
    if any(half):
        return 2
    return 3


# ---------------------------------------------------------------------------
# effective separation, by an independent breadth-first search


def _key(g):
    kind = type(g).__name__
    if kind == "CNOT":
        return ("c", g.control)
    if kind == "Rotation" and g.axis.value in ("x", "z"):
        return (g.axis.value, g.qubit, g.angle)
    raise ValueError("separation is defined over CNOT/Rx/Rz only")


def _moves(state):
    """States one rewrite away.  A state is a tuple of keys:
    ('c', control) or (axis, qubit, angle)."""
    n = len(state)
    for i in range(n - 1):
        a, b = state[i], state[i + 1]
        # Rx on a CNOT's target and Rz on its control commute with it.
        if a[0] == "c" and b[0] != "c" and _commutes(b, a[1]):
            yield state[:i] + (b, a) + state[i + 2 :]
        if b[0] == "c" and a[0] != "c" and _commutes(a, b[1]):
            yield state[:i] + (b, a) + state[i + 2 :]
    # CNOT(c,t) [Rx on c] [Rz on t] CNOT(c,t) == CNOT(t,c) [Rz on c] [Rx on t] CNOT(t,c),
    # with either rotation optional and the middle pair in either order.
    for i in range(n):
        if state[i][0] != "c":
            continue
        ctl = state[i][1]
        for width in (3, 4):
            j = i + width - 1
            if j >= n or state[j] != state[i]:
                continue
            mid = state[i + 1 : j]
            rx = [g for g in mid if g[0] == "x" and g[1] == ctl]
            rz = [g for g in mid if g[0] == "z" and g[1] == 1 - ctl]
            if len(rx) > 1 or len(rz) > 1 or len(rx) + len(rz) != len(mid):
                continue
            flipped = ("c", 1 - ctl)
            new_mid = tuple(("z", ctl, g[2]) for g in rz) + tuple(("x", 1 - ctl, g[2]) for g in rx)
            yield state[:i] + (flipped,) + new_mid + (flipped,) + state[j + 1 :]


def _commutes(rot, ctl):
    axis, qubit, _ = rot
    return (axis == "z" and qubit == ctl) or (axis == "x" and qubit != ctl)


def _adjacent(state):
    return any(state[i][0] == "c" and state[i + 1][0] == "c" for i in range(len(state) - 1))


def _mirror(state):
    return tuple(("c", 1 - g[1]) if g[0] == "c" else (g[0], 1 - g[1], g[2]) for g in state)


def separated(gates, depth_limit=8):
    """True unless some circuit within depth_limit commutation/flip
    rewrites of ``gates`` has two adjacent CNOTs."""
    start = tuple(_key(g) for g in gates)
    if _adjacent(start):
        return False
    seen = {min(start, _mirror(start))}
    frontier = [start]
    for _ in range(depth_limit):
        nxt = []
        for state in frontier:
            for cand in _moves(state):
                canon = min(cand, _mirror(cand))
                if canon in seen:
                    continue
                if _adjacent(cand):
                    return False
                seen.add(canon)
                nxt.append(cand)
        if not nxt:
            break
        frontier = nxt
    return True
