"""Fixed-size complex linear algebra.

Everything operates on 2x2 and 4x4 complex128 NumPy arrays: Kronecker
products, the gamma product, 4x4 characteristic polynomials, simultaneous
diagonalization of symmetric unitary matrices (LAPACK ``eigh``), and the
phase-blind distance used for circuit verification.  Matrix constants used
throughout the package live here.
"""

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
    are the eigenvectors.  Eigenvalues are returned in canonical order:
    ascending principal argument in (-pi, pi], ties kept stable.

    Works because the real and imaginary parts of a symmetric unitary
    commute, hence share an orthonormal eigenbasis, which one ``eigh`` of
    the real symmetric cos(t) Re(p) + sin(t) Im(p) finds for every t that
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
#: pairs, which every gamma with a real trace has; the later angles are
#: irrational multiples of pi, and a spectrum defeats them all only if pair
#: midpoints (a + b) / 2 sit on every one of them.  The same idea, with random
#: angles, is in Qiskit's ``TwoQubitWeylDecomposition``
#: (qiskit/synthesis/two_qubit/two_qubit_decompose.py); fixed angles keep
#: every output deterministic.
_MIX_ANGLES = (0.0, 1.0, 2.0, 0.5, 2.5)

#: Largest off-diagonal entry of q p q^T accepted without trying the next
#: mixing angle.
_OFF_DIAGONAL_TOL = 1e-13


def _diagonalize_symmetric_unitary(p):
    """``diagonalize_symmetric_unitary`` without its input checks, for a
    complex128 ``p`` that is symmetric unitary by construction: the first
    mixing angle whose eigenvectors leave q p q^T diagonal to
    ``_OFF_DIAGONAL_TOL``, else the best one."""
    best = None
    for t in _MIX_ANGLES:
        x = math.cos(t) * p.real + math.sin(t) * p.imag
        _, v = np.linalg.eigh((x + x.T) / 2.0)
        m = v.T @ p @ v
        off = np.abs(m - np.diag(np.diag(m))).max()
        if best is None or off < best[0]:
            best = (off, v, m)
        if off <= _OFF_DIAGONAL_TOL:
            break
    _, v, m = best
    d = np.diag(m)
    idx = np.argsort(np.angle(d), kind="stable")
    v = v[:, idx]
    d = d[idx]
    if np.linalg.det(v) < 0:
        v[:, 0] = -v[:, 0]
    return v.T.copy(), d


def phase_distance(u, v):
    """min over phi of ||exp(i phi) u - v||_F for unitary u, v.

    The optimum is attained at phi = -arg(tr(v^dag u)); the norm is then
    evaluated directly so the result is meaningful down to machine precision
    (the closed form sqrt(2n - 2|tr|) loses half the digits to cancellation).
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    t = np.trace(v.conj().T @ u)
    phi = 0.0 if t == 0 else -np.angle(t)
    return float(np.linalg.norm(np.exp(1j * phi) * u - v))


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary from a seeded NumPy Generator.

    QR of a complex Gaussian matrix with the R diagonal phase-fixed; the same
    generator state always yields the same matrix.
    """
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    dia = np.diag(r)
    return q @ np.diag(dia / np.abs(dia))
