"""Fixed-size complex linear algebra.

Everything operates on 2x2 and 4x4 complex128 NumPy arrays: Kronecker
products, the gamma product, 4x4 characteristic polynomials, simultaneous
diagonalization of symmetric unitary matrices (LAPACK ``eigh``), and the
phase-blind distance used for circuit verification.  Matrix constants used
throughout the package live here.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricUnitary, NotUnitary

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

I4 = np.eye(4, dtype=np.complex128)

# Controlled-NOT permutation matrices, unit global phase.  Qubit 0 is the
# left Kronecker factor (top wire); CNOT01 has control 0 / target 1.
CNOT01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CNOT10 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)
SWAP_MAT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
CZ_MAT = np.diag([1, 1, 1, -1]).astype(np.complex128)

SYY = np.kron(SIGMA_Y, SIGMA_Y)

# The fixed change of basis under which tensor products of one-qubit special
# unitaries become real orthogonal matrices.  Satisfies E @ E.T == -SYY.
MAGIC = (
    np.array(
        [
            [1, 1j, 0, 0],
            [0, 0, 1j, 1],
            [0, 0, 1j, -1],
            [1, -1j, 0, 0],
        ],
        dtype=np.complex128,
    )
    / np.sqrt(2)
)
MAGIC_DAG = MAGIC.conj().T.copy()


def gamma4(u):
    """u @ (sigma_y x sigma_y) @ u.T @ (sigma_y x sigma_y) for a 4x4 u."""
    u = np.asarray(u, dtype=np.complex128)
    return u @ SYY @ u.T @ SYY


def kron(a, b):
    """Kronecker product; qubit 0 is the left factor."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape == (2, 2) and b.shape == (2, 2):
        # Entry (2i + k, 2j + l) is a[i, j] * b[k, l], as in np.kron.
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    return np.kron(a, b)


_EYE = {2: I2, 4: I4}


def is_unitary(m, tol=1e-9):
    """Whether ||m^dag m - I||_F <= tol for a finite square matrix m."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(m.real).all():
        return False
    n = m.shape[0]
    r = m.conj().T @ m - (_EYE[n] if n in _EYE else np.eye(n))
    return math.sqrt(np.vdot(r, r).real) <= tol


def allclose(a, b, atol):
    """``np.allclose(a, b, atol=atol)`` (rtol 1e-5) for finite arrays,
    without its generic-dispatch cost."""
    return bool((np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


def det2(m):
    """Determinant of a 2x2 matrix, in closed form."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def is_special_unitary(m, tol=1e-9):
    return is_unitary(m, tol) and abs(np.linalg.det(np.asarray(m)) - 1.0) <= tol


def _require_unitary(m, tol=1e-8):
    if not is_unitary(m, tol):
        raise NotUnitary("matrix is not unitary within tol=%g" % tol)


@dataclass(frozen=True)
class CharPoly4:
    """Monic degree-4 characteristic polynomial det(X*I - M).

    ``coeffs`` holds (a_0, a_1, a_2, a_3, a_4) with a_4 == 1; for M in SU(4)
    the coefficients satisfy a_0 == 1 and conj(a_i) == a_{4-i}.
    """

    coeffs: tuple

    def as_array(self):
        return np.array(self.coeffs, dtype=np.complex128)

    def close_to(self, other, tol=1e-9):
        return bool(np.allclose(self.as_array(), other.as_array(), atol=tol))


def charpoly4(m):
    """Characteristic polynomial of a 4x4 matrix.

    Faddeev-LeVerrier trace recurrence: exact in the number of operations,
    no eigensolver involved.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError("charpoly4 expects a 4x4 matrix, got shape %r" % (m.shape,))
    coeffs = np.zeros(5, dtype=np.complex128)
    coeffs[4] = 1.0
    acc = np.zeros_like(m)
    for k in range(1, 5):
        acc = m @ acc + coeffs[5 - k] * I4
        coeffs[4 - k] = -np.trace(m @ acc) / k
    return CharPoly4(tuple(coeffs))


def diagonalize_symmetric_unitary(p, tol=1e-8):
    """Diagonalize a symmetric unitary matrix by a real orthogonal one.

    Returns ``(q, d)`` with ``q`` real orthogonal, ``det(q) = +1``, and
    ``q @ p @ q.T`` equal to ``diag(d)`` within tolerance.  The rows of ``q``
    are the eigenvectors.  The result is in the canonical form of
    ``_canonical``: eigenvalues by ascending principal argument in
    (-pi, pi], ties kept stable, and eigenvector signs fixed, so that every
    orthonormal eigenbasis of a spectrum with distinct eigenvalues gives
    the same ``(q, d)``.

    Works because the real and imaginary parts of a symmetric unitary
    commute, hence share an orthonormal eigenbasis.  The constant bases of
    ``_CORE_BASES`` are tried first; otherwise one ``eigh`` of the real
    symmetric cos(t) Re(p) + sin(t) Im(p) finds it for every t that
    separates the distinct eigenvalues of p (see ``_MIX_ANGLES``).
    """
    p = np.asarray(p, dtype=np.complex128)
    if np.linalg.norm(p - p.T) > tol * 10:
        raise NotSymmetricUnitary("matrix is not symmetric within tol")
    if not is_unitary(p, tol * 10):
        raise NotSymmetricUnitary("matrix is not unitary within tol")
    return _diagonalize_symmetric_unitary(p)


#: Mixing angles t tried in order by the diagonalizer.  Eigenvalues e^{ia}
#: and e^{ib} of p coincide in cos(t) Re(p) + sin(t) Im(p) when
#: t = (a + b) / 2 mod pi.  t = 0 (Re(p) alone) is blind to conjugate
#: pairs, which every gamma with a real trace has, so it comes last; the
#: other angles are irrational multiples of pi, and a spectrum defeats them
#: all only if pair midpoints (a + b) / 2 sit on every one of them.  The
#: same idea, with random angles, is in Qiskit's
#: ``TwoQubitWeylDecomposition``
#: (qiskit/synthesis/two_qubit/two_qubit_decompose.py); fixed angles keep
#: every output deterministic, and ``_canonical`` makes it independent of
#: which angle succeeds.
_MIX_ANGLES = (1.0, 2.0, 0.5, 2.5, 0.0)

#: Real orthogonal bases (rows) that diagonalize the symmetric magic-basis
#: form of a synthesis core at every angle, tried before any ``eigh``.  The
#: CYZ core's form is two 2x2 blocks [[x, y], [y, x]], diagonalized by the
#: rows (1, +-1, 0, 0) / sqrt 2 and (0, 0, 1, +-1) / sqrt 2; the CXZ core's
#: form is diagonal already.
_CORE_BASES = (
    np.array(
        [[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]]
    )
    / math.sqrt(2.0),
    np.eye(4),
)

#: Largest off-diagonal entry of q p q^T accepted without trying the next
#: basis or mixing angle.
_OFF_DIAGONAL_TOL = 1e-13

_OFF_DIAGONAL = np.flatnonzero(~np.eye(4, dtype=bool))


def _off_diagonal(m):
    """Largest magnitude among the off-diagonal entries of a 4x4 m."""
    return np.abs(m.take(_OFF_DIAGONAL)).max()


def _diagonalize_symmetric_unitary(p):
    """``diagonalize_symmetric_unitary`` without its input checks, for a
    complex128 ``p`` that is symmetric unitary by construction: the first
    of ``_CORE_BASES`` that leaves q p q^T diagonal to ``_OFF_DIAGONAL_TOL``,
    else the first mixing angle whose eigenvectors do, else the best one."""
    for q in _CORE_BASES:
        # Entry (0, 1) of q p q^T rejects an input the basis does not fit
        # before the full product is formed.
        if abs(q[0] @ p @ q[1]) <= _OFF_DIAGONAL_TOL:
            m = q @ p @ q.T
            if _off_diagonal(m) <= _OFF_DIAGONAL_TOL:
                return _canonical(q, m.diagonal())
    best = None
    for t in _MIX_ANGLES:
        x = math.cos(t) * p.real + math.sin(t) * p.imag
        _, v = np.linalg.eigh((x + x.T) / 2.0)
        m = v.T @ p @ v
        off = _off_diagonal(m)
        if best is None or off < best[0]:
            best = (off, v, m)
        if off <= _OFF_DIAGONAL_TOL:
            break
    _, v, m = best
    return _canonical(v.T, m.diagonal())


def _leading(row):
    """The first entry of a unit 4-vector with magnitude >= 1/4; one exists
    because some entry has magnitude >= 1/2."""
    return next(x for x in row if abs(x) >= 0.25)


def _canonical(q, d):
    """The canonical form of an orthogonal diagonalization (rows of ``q``,
    eigenvalues ``d``): ascending principal argument of d, ties in input
    order; rows 1-3 with their ``_leading`` entry positive, and row 0 with
    that sign too unless the other sign is needed for det(q) = +1.  A new
    array; ``q`` is not modified."""
    angles = [cmath.phase(z) for z in d.tolist()]
    order = sorted(range(4), key=angles.__getitem__)
    rows = q.tolist()
    q = np.array([rows[i] if _leading(rows[i]) > 0.0 else [-x for x in rows[i]] for i in order])
    if np.linalg.det(q) < 0.0:
        q[0] = -q[0]
    return q, d[order]


def phase_distance(u, v):
    """min over phi of ||exp(i phi) u - v||_F for unitary u, v.

    The optimum is attained at phi = -arg(tr(v^dag u)); the norm is then
    evaluated directly so the result is meaningful down to machine precision
    (the closed form sqrt(2n - 2|tr|) loses half the digits to cancellation).
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    t = complex(np.vdot(v, u))
    r = (u if t == 0 else u * cmath.exp(-1j * cmath.phase(t))) - v
    return math.sqrt(np.vdot(r, r).real)


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary from a seeded NumPy Generator.

    QR of a complex Gaussian matrix with the R diagonal phase-fixed; the same
    generator state always yields the same matrix.
    """
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    dia = np.diag(r)
    return q @ np.diag(dia / np.abs(dia))
