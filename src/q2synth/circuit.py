"""Two-qubit gate and circuit model.

Gates live on wires 0 and 1, where qubit 0 is the top wire and the left
Kronecker factor.  Circuits are immutable gate tuples applied in index order
(index 0 first), so the simulator, one scalar pass over the gates, multiplies
later gates on the left.  Also here: the one axis algebra (``_cross``: a
quarter turn about a takes the axis n to a x n), from which every Euler
frame and the rewrite rule AxisChange read their changes of axes; Euler
decompositions for every ordered axis pair, tensor factorization of local
operators, SU(4) normalization, and the text/QASM serializations of the CLI.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import CircuitParseError, NotLocal, NotUnitary


class Axis(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"


#: The axes in cyclic order; axis k is component k + 1 of a quaternion.
_AXES = tuple(Axis)

#: The axes as module names, which read faster than the Enum's ``Axis.X``.
_X, _Y, _Z = _AXES


def _cross(a, b):
    """(c, sign) with a x b = sign * c for distinct axes a and b."""
    i, j = _AXES.index(a), _AXES.index(b)
    return _AXES[3 - i - j], (1.0 if (j - i) % 3 == 1 else -1.0)


def wrap_angle(theta):
    """Map an angle to the principal interval (-pi, pi]."""
    t = math.fmod(float(theta), 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


def _rotation_entries(axis, angle):
    """The entries (m00, m01, m10, m11) of R_n(theta), as Python scalars;
    ``simulate`` inlines them."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    if axis is _Z:
        z = complex(c, -s)
        return z, 0.0, 0.0, z.conjugate()
    if axis is _X:
        z = complex(0.0, -s)
        return c, z, z, c
    if axis is _Y:
        return c, -s, s, c
    raise ValueError("rotation axis must be an Axis, not %r" % (axis,))


def rotation_matrix2(axis, angle):
    """R_n(theta) = exp(-i sigma_n theta / 2) as a 2x2 matrix."""
    m00, m01, m10, m11 = _rotation_entries(axis, angle)
    return np.array([[m00, m01], [m10, m11]], dtype=np.complex128)


@dataclass(frozen=True)
class Rotation:
    axis: Axis
    qubit: int
    angle: float

    def __post_init__(self):
        if not isinstance(self.axis, Axis):
            raise ValueError("rotation axis must be an Axis, not %r" % (self.axis,))
        if self.qubit not in (0, 1):
            raise ValueError("qubit must be 0 or 1")
        if not math.isfinite(self.angle):
            raise ValueError("rotation angle must be finite")

    @classmethod
    def _trusted(cls, axis, qubit, angle):
        """A Rotation built without ``__post_init__``, from an Axis, a qubit
        0 or 1 and a finite angle that are already checked: another
        Rotation's, or computed in closed form from checked input."""
        g = object.__new__(cls)
        fields = g.__dict__
        fields["axis"] = axis
        fields["qubit"] = qubit
        fields["angle"] = angle
        return g


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int

    def __post_init__(self):
        if {self.control, self.target} != {0, 1}:
            raise ValueError("control and target must be distinct wires 0/1")


#: The two CNOTs, the one with control c at index c.
_CNOTS = (CNOT(0, 1), CNOT(1, 0))


@dataclass(frozen=True, eq=False)
class Generic1Q:
    qubit: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.qubit not in (0, 1):
            raise ValueError("qubit must be 0 or 1")
        m = nm.require_unitary(self.matrix, "Generic1Q", size=2)
        det = nm.det2(m)
        if abs(det - 1.0) > nm.UNITARY_TOL:
            m = m * np.exp(-0.5j * np.angle(det))
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, qubit, matrix):
        """A Generic1Q on ``qubit`` whose ``matrix`` is already checked.

        Skips ``__post_init__``: the matrix must be a complex128 2x2
        unitary to UNITARY_TOL (in SU(2) by construction, another
        Generic1Q's, or a product of those taken back to unitary), and the
        qubit must be 0 or 1.
        """
        g = object.__new__(cls)
        fields = g.__dict__
        fields["qubit"] = qubit
        fields["matrix"] = matrix
        return g

    def __eq__(self, other):
        if not isinstance(other, Generic1Q):
            return NotImplemented
        return self.qubit == other.qubit and np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True)
class Swap:
    pass


def gate_matrix(g):
    """The 4x4 operator of a single gate (CNOTs carry unit global phase)."""
    return simulate(Circuit((g,)))


@dataclass(frozen=True)
class Circuit:
    gates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    @property
    def cnot_count(self):
        return sum(1 for g in self.gates if isinstance(g, CNOT))

    @property
    def one_param_count(self):
        return sum(1 for g in self.gates if isinstance(g, Rotation))

    @property
    def basic_count(self):
        """Gates counted at the CNOT + arbitrary-one-qubit level.

        Rotations and Generic1Q both count 1; a SWAP counts as its standard
        three-CNOT realization.
        """
        total = 0
        for g in self.gates:
            total += 3 if isinstance(g, Swap) else 1
        return total


def _entries(g):
    """The entries (m00, m01, m10, m11) of a Rotation or Generic1Q, as
    Python scalars; TypeError for any other object."""
    kind = type(g)
    if kind is Rotation:
        return _rotation_entries(g.axis, g.angle)
    if kind is Generic1Q:
        return g.matrix.ravel().tolist()
    raise TypeError("not a gate: %r" % (g,))


def _mul2(x, y):
    """x @ y for 2x2 matrices given as entries (m00, m01, m10, m11)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return x0 * y0 + x1 * y2, x0 * y1 + x1 * y3, x2 * y0 + x3 * y2, x2 * y1 + x3 * y3


#: The identity's entries: a run in ``simulate`` is this object until a gate updates it.
_ID2 = (1.0, 0.0, 0.0, 1.0)

#: Read by ``simulate`` after the last gate: it closes the open runs as a layer.
_END = object()


def simulate(c):
    """Ordered matrix product of a circuit; later gates multiply on the left.

    One scalar pass over the gates, with no call per gate: each wire's run
    of one-qubit gates is a 2x2 that Rz scales by rows, Ry and Rx mix and a
    Generic1Q multiplies.  Each CNOT or SWAP, and the end if a run is open,
    closes both runs as one Kronecker layer, its rows appended to one flat
    list in the gate's order; NumPy multiplies the layers, later ones on
    the left.  Always a new array.
    """
    flat, runs = [], [_ID2, _ID2]
    for g in c.gates + (_END,):
        kind = type(g)
        if kind is Rotation:
            y0, y1, y2, y3 = runs[g.qubit]
            co, s, axis = math.cos(0.5 * g.angle), math.sin(0.5 * g.angle), g.axis
            if axis is _Z:
                z, w = complex(co, -s), complex(co, s)
                runs[g.qubit] = z * y0, z * y1, w * y2, w * y3
            elif axis is _X:
                z = complex(0.0, -s)
                runs[g.qubit] = co * y0 + z * y2, co * y1 + z * y3, z * y0 + co * y2, z * y1 + co * y3
            elif axis is _Y:
                runs[g.qubit] = co * y0 - s * y2, co * y1 - s * y3, s * y0 + co * y2, s * y1 + co * y3
            else:
                raise ValueError("rotation axis must be an Axis, not %r" % (axis,))
        elif kind is CNOT or kind is Swap or g is _END:
            if g is _END and runs[0] is _ID2 and runs[1] is _ID2:
                break
            (a0, a1, a2, a3), (b0, b1, b2, b3) = runs
            r0, r1 = (a0 * b0, a0 * b1, a1 * b0, a1 * b1), (a0 * b2, a0 * b3, a1 * b2, a1 * b3)
            r2, r3 = (a2 * b0, a2 * b1, a3 * b0, a3 * b1), (a2 * b2, a2 * b3, a3 * b2, a3 * b3)
            if kind is Swap:
                flat += r0 + r2 + r1 + r3
            elif kind is not CNOT:
                flat += r0 + r1 + r2 + r3
            elif g.control:
                flat += r0 + r3 + r2 + r1
            else:
                flat += r0 + r1 + r3 + r2
            runs = [_ID2, _ID2]
        elif kind is Generic1Q:
            (x0, x1), (x2, x3) = g.matrix.tolist()
            y0, y1, y2, y3 = runs[g.qubit]
            runs[g.qubit] = x0 * y0 + x1 * y2, x0 * y1 + x1 * y3, x2 * y0 + x3 * y2, x2 * y1 + x3 * y3
        else:
            raise TypeError("not a gate: %r" % (g,))
    layers = np.array(flat, dtype=np.complex128).reshape(-1, 4, 4)
    out = layers[0] if flat else nm.I4.copy()
    for layer in layers[1:]:
        out = layer.dot(out)
    return out


def su4_normalize(u):
    """Rescale a unitary to determinant one.

    Returns ``(v, phase)`` with ``v = exp(-i phase) u``, ``det v == 1`` and
    ``phase = arg(det u) / 4`` on the principal branch (-pi, pi].
    """
    return _su4_normalize(nm.require_unitary(u, "su4_normalize"))


def _su4_normalize(u):
    """``su4_normalize`` without its unitarity check, for a complex128 ``u``
    that is unitary by construction or was checked by the caller.  A
    determinant within ``ZERO_TOL`` of -1 takes the argument +pi: the
    3-CNOT core's is exactly -1, and the sign of its rounding-level
    imaginary part would otherwise pick -pi or +pi, and so the SU(4)
    representative, from one input to the next."""
    det = nm.det4(u)
    if det.real < 0.0 and abs(det.imag) <= nm.ZERO_TOL:
        det = complex(det.real, 0.0)
    phase = cmath.phase(det) / 4.0
    return u * cmath.exp(-1j * phase), phase


def _su2(x0, x1, x2, x3):
    """x0 I - i (x1 X + x2 Y + x3 Z): the SU(2) element of a unit quaternion."""
    return np.array(
        [[complex(x0, -x3), complex(-x2, -x1)], [complex(x2, -x1), complex(x0, x3)]],
        dtype=np.complex128,
    )


#: ``_frame``'s read of each axis pair (o, i), with i x o = sign * c.
_FRAME_READS = {
    (o, i): (_AXES.index(c) + 1, sign, _AXES.index(i) + 1, _AXES.index(o) + 1)
    for o in Axis for i in Axis if o is not i for c, sign in [_cross(i, o)]
}


def _frame(x, read):
    """The components of the unit quaternion x along (inner x outer, inner,
    outer), ``read`` being ``_FRAME_READS[outer, inner]``.  A g in SU(2)
    turning z and y to outer and inner turns these axes to (x, y, z), so
    the angles of the result about (Z, Y) are those of x about (outer,
    inner)."""
    c, sign, i, o = read
    return x[0], sign * x[c], x[i], x[o]


def euler_decompose(u, outer, inner):
    """Angles (theta, phi, psi, phase) with
    u = exp(i phase) R_outer(theta) R_inner(phi) R_outer(psi).

    The first column of u over a square root of det u is a unit quaternion
    (``_su2``), whose angles ``_zy_angles`` reads in the frame of (outer,
    inner); the sign the root leaves free goes into the phase.  At the
    gimbal, an entry of u within ``ZERO_TOL`` of 0, psi = 0.  ValueError
    unless outer and inner are distinct members of Axis.
    """
    for name, axis in (("outer", outer), ("inner", inner)):
        if not isinstance(axis, Axis):
            raise ValueError("%s axis must be an Axis, not %r" % (name, axis))
    if outer is inner:
        raise ValueError("outer and inner axes must differ")
    u = nm.require_unitary(u, "euler_decompose", size=2)
    (w00, w01), (w10, w11) = u.tolist()
    phase = cmath.phase(w00 * w11 - w01 * w10) / 2.0
    e = cmath.exp(-1j * phase)
    v00, v10 = w00 * e, w10 * e
    y = _frame((v00.real, -v10.imag, v10.real, -v00.imag), _FRAME_READS[outer, inner])
    theta, phi, psi = _zy_angles(y)
    # y is +- the quaternion of Rz(theta) Ry(phi) Rz(psi): fold the sign in.
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    plus, minus = (theta + psi) / 2.0, (theta - psi) / 2.0
    rebuilt = (c * math.cos(plus), -s * math.sin(minus), s * math.cos(minus), c * math.sin(plus))
    if sum(a * b for a, b in zip(y, rebuilt)) < 0.0:
        phase = wrap_angle(phase + math.pi)
    return theta, phi, psi, phase


def _zy_angles(x):
    """(theta, phi, psi) with ``_su2(*x)`` = +-Rz(theta) Ry(phi) Rz(psi) for
    a unit quaternion x, theta wrapped to (-pi, pi].  The first column of
    Rz(theta) Ry(phi) Rz(psi) is cos(phi/2) e^{-i(theta+psi)/2} = x0 - i x3
    over sin(phi/2) e^{i(theta-psi)/2} = x2 - i x1.  Near the gimbal, phi
    near 0 or pi, only theta + psi or theta - psi is well conditioned, so
    theta and psi are not a stable function of x there, though the
    rotations they make up are; at it (|(x1, x2)| or |(x0, x3)| within
    ``ZERO_TOL``) psi is 0 and theta carries the rest."""
    x0, x1, x2, x3 = x
    c, s = math.hypot(x0, x3), math.hypot(x1, x2)
    if s <= nm.ZERO_TOL:
        return wrap_angle(2.0 * math.atan2(x3, x0)), 0.0, 0.0
    if c <= nm.ZERO_TOL:
        return wrap_angle(2.0 * math.atan2(-x1, x2)), math.pi, 0.0
    plus, minus = math.atan2(x3, x0), math.atan2(-x1, x2)
    theta, psi = plus + minus, plus - minus
    return (theta if -math.pi < theta <= math.pi else wrap_angle(theta), 2.0 * math.atan2(s, c),
            psi if -math.pi < psi <= math.pi else wrap_angle(psi))


#: The map from o in SO(4) (16 entries, row-major) to its associate matrix
#: outer(x, y) (row-major), where E o E^dag = su2(x) x su2(y) for unit
#: quaternions x and y (van Elfrinkhof's formula; E is the magic basis).
#: The map outer(x, y) -> o has entries 0 and +-1 and is twice an
#: orthogonal matrix, so its inverse is its transpose over 4.
_ASSOC = np.round(
    np.array(
        [
            (nm.MAGIC_DAG @ nm.kron(_su2(*e), _su2(*f)) @ nm.MAGIC).real.ravel()
            for e in np.eye(4)
            for f in np.eye(4)
        ]
    )
) / 4.0


def _so4_factors(o):
    """Unit quaternions (x, y) with E o E^dag = su2(x) x su2(y) up to sign
    (``_su2``), for a real 4x4 ``o`` in SO(4), in closed form.  The
    associate matrix of o is outer(x, y): y is its row of largest norm
    (the first of equal ones), normalized, and x its product with y,
    normalized.  NotLocal when the split misses o by more than
    ``LOCAL_TOL`` in Frobenius norm (twice its miss on the associate
    matrix), as it does for an o that is not in SO(4)."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = _ASSOC.dot(o.ravel()).tolist()
    row, norm = (a0, a1, a2, a3), math.hypot(a0, a1, a2, a3)
    for r in ((b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3)):
        n = math.hypot(*r)
        if n > norm:
            row, norm = r, n
    y0, y1, y2, y3 = row[0] / norm, row[1] / norm, row[2] / norm, row[3] / norm
    x0 = a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3
    x1 = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3
    x2 = c0 * y0 + c1 * y1 + c2 * y2 + c3 * y3
    x3 = d0 * y0 + d1 * y1 + d2 * y2 + d3 * y3
    norm = math.hypot(x0, x1, x2, x3)
    x0, x1, x2, x3 = x0 / norm, x1 / norm, x2 / norm, x3 / norm
    err = 2.0 * math.hypot(
        a0 - x0 * y0, a1 - x0 * y1, a2 - x0 * y2, a3 - x0 * y3,
        b0 - x1 * y0, b1 - x1 * y1, b2 - x1 * y2, b3 - x1 * y3,
        c0 - x2 * y0, c1 - x2 * y1, c2 - x2 * y2, c3 - x2 * y3,
        d0 - x3 * y0, d1 - x3 * y1, d2 - x3 * y2, d3 - x3 * y3,
    )
    if err > nm.LOCAL_TOL:
        raise NotLocal("best tensor factorization misses by %.3g" % err)
    return [x0, x1, x2, x3], [y0, y1, y2, y3]


def tensor_factor(g):
    """Split a local 4x4 operator into one-qubit factors.

    Returns ``(a, b)`` in SU(2) with ``g`` = a x b up to phase; NotLocal
    when the split misses ``g`` by more than ``LOCAL_TOL`` in phase
    distance.  In the magic basis a local g is e^{i phi} o with o in SO(4),
    and the squares of its 16 entries sum to 4 e^{2i phi}; that sum removes
    the phase (up to a sign, which o and -o share) and ``_so4_factors``
    splits o.  Both run on the polar step of ``g`` (``numerics._polar_step``),
    so a non-unitarity the input check accepts is not taken for a miss.
    """
    g = nm._polar_step(nm.require_unitary(g, "tensor_factor"))
    m = nm.MAGIC_DAG.dot(g).dot(nm.MAGIC)
    s = complex(np.sum(m * m))
    if s == 0:
        raise NotLocal("matrix does not factor into one-qubit operators")
    x, y = _so4_factors((m * cmath.sqrt(s.conjugate() / abs(s))).real)
    a, b = _su2(*x), _su2(*y)
    err = nm.phase_distance(nm.kron(a, b), g)
    if err > nm.LOCAL_TOL:
        raise NotLocal("best tensor factorization misses by %.3g" % err)
    return a, b


# --- serialization ---------------------------------------------------------

def _fmt(x):
    return "%.17g" % float(x)


def gate_to_text(g):
    if isinstance(g, Rotation):
        return "R%s %d %s" % (g.axis.value.upper(), g.qubit, _fmt(g.angle))
    if isinstance(g, CNOT):
        return "CNOT %d %d" % (g.control, g.target)
    if isinstance(g, Generic1Q):
        flat = " ".join(_fmt(p) for z in g.matrix.ravel() for p in (z.real, z.imag))
        return "U3 %d %s" % (g.qubit, flat)
    if isinstance(g, Swap):
        return "SWAP"
    raise TypeError("not a gate: %r" % (g,))


def circuit_to_text(c):
    return "\n".join(gate_to_text(g) for g in c.gates) + ("\n" if c.gates else "")


#: The number of values after each gate name on a circuit-file line.
_ARGUMENTS = {"RX": 2, "RY": 2, "RZ": 2, "CNOT": 2, "U3": 9, "SWAP": 0}


def parse_circuit(text):
    gates = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *args = line.split()
        op = op.upper()
        try:
            if op not in _ARGUMENTS:
                raise ValueError("unknown gate %r" % op)
            if len(args) != _ARGUMENTS[op]:
                raise ValueError("%s takes %d values, got %d" % (op, _ARGUMENTS[op], len(args)))
            if op in ("RX", "RY", "RZ"):
                gates.append(Rotation(Axis(op[1].lower()), int(args[0]), float(args[1])))
            elif op == "CNOT":
                gates.append(CNOT(int(args[0]), int(args[1])))
            elif op == "U3":
                vals = [float(p) for p in args[1:]]
                m = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
                gates.append(Generic1Q(int(args[0]), m.reshape(2, 2)))
            else:
                gates.append(Swap())
        except (ValueError, NotUnitary) as exc:
            raise CircuitParseError("line %d: %s" % (lineno, exc)) from exc
    return Circuit(tuple(gates))


def to_qasm(c):
    """OpenQASM-2 text for a circuit (generic gates become u3 via Euler angles)."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[2];"]
    for g in c.gates:
        if isinstance(g, Rotation):
            lines.append("r%s(%s) q[%d];" % (g.axis.value, _fmt(g.angle), g.qubit))
        elif isinstance(g, CNOT):
            lines.append("cx q[%d],q[%d];" % (g.control, g.target))
        elif isinstance(g, Generic1Q):
            th, ph, ps, _ = euler_decompose(g.matrix, Axis.Z, Axis.Y)
            lines.append("u3(%s,%s,%s) q[%d];" % (_fmt(ph), _fmt(th), _fmt(ps), g.qubit))
        elif isinstance(g, Swap):
            lines.append("swap q[0],q[1];")
    return "\n".join(lines) + "\n"
