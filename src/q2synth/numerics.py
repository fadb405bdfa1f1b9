"""Fixed-size complex linear algebra.

Everything operates on 2x2 and 4x4 complex128 NumPy arrays: Kronecker
products, the gamma product, 4x4 characteristic polynomials, simultaneous
diagonalization of symmetric unitary matrices (LAPACK ``eigh``), and the
phase-blind distance used for circuit verification.  Matrix constants used
throughout the package live here, and so does every numerical tolerance.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricUnitary, NotUnitary

# --- tolerances --------------------------------------------------------------
# Every tolerance of the package, each with its unit and the reason for its
# value.  The paper obtains every gate parameter in closed form, so none of
# them is part of the method: each is a numerical policy.  No other line of
# the package writes a tolerance as a literal (tests/test_tolerances.py).

#: Input check.  Unit: ||m^dag m - I||_F, and |det m - 1| or ||m - m^T||_F
#: where a function needs those too.  The value of DEFAULT_TOL: no circuit
#: meets the verification bound on an input much farther than this from
#: every unitary.
UNITARY_TOL = 1e-8

#: Rounding floor.  Unit: as UNITARY_TOL.  Rounding leaves about 1e-15 on a
#: computed 4x4 unitary.  A caller's tighter ``tol`` tightens the input
#: check down to this value and no further, so an unreachable verification
#: bound raises VerificationFailed and not NotUnitary; ``selftest`` bounds
#: its exact identities by it, and ``cnot_cost`` the rounding between the
#: trace of gamma and the sum of its computed spectrum.
ROUNDING_TOL = 1e-10

#: Verification.  Unit: phase distance min_phi ||e^{i phi} u - v||_F.  Every
#: emitted circuit is simulated and checked against its input at this
#: bound.  It is also the default ``tol`` of every call that takes one.
DEFAULT_TOL = 1e-8

#: One-qubit structure.  Unit: Frobenius norm or phase distance.  How far a
#: split into one-qubit factors may miss (``tensor_factor``, the local layer
#: of synthesis), how far a gate's entries may be from a I + b X or from
#: diagonal for the rewrite rules to commute it with a CNOT's X or Z, how
#: near a gate must be to a Pauli or a quarter turn for the rules that need
#: one.  A tenth of DEFAULT_TOL: circuits of such parts verify.
LOCAL_TOL = 1e-9

#: Zero.  Unit: radians, or the entries of a 2x2 matrix.  A rotation angle
#: this small is dropped, as is a one-qubit matrix this near a multiple of
#: the identity; a determinant this near -1 takes the argument +pi; every
#: rewrite rule is sound to this bound.  Rounding leaves about 1e-15 on
#: each.
ZERO_TOL = 1e-12

#: Spectrum alignment.  Unit: max |difference| of two aligned gamma
#: spectra (``invariants._align_spectra``, also the unit of ``tol`` in
#: ``cnot_cost`` and ``same_double_coset``).  The local layer matches a core
#: and a target this close.  Rounding leaves about 1e-15 on a matched pair;
#: a false match fails the verification at DEFAULT_TOL.
SPECTRUM_TOL = 1e-6

#: Diagonalizer acceptance.  Unit: largest |off-diagonal entry| of q p q^T.
#: A mixing angle that leaves more gives way to the next one.
#: ``eigh`` of a separated spectrum leaves about 1e-15.
OFF_DIAGONAL_TOL = 1e-13

#: The CNOT class, for the cxz angle psi.  Unit: |tr gamma(u C[0->1])|, the
#: |p| of ``synthesis._cxz_psi``: where the sums that fix psi are rounding,
#: psi = 0 at |p| at least this, else it is read from the spectra.  Measured:
#: on about 40,000 seeded inputs 1e-9 to 1e-4 from the identity class, |p|
#: stayed below 2.3e-5 there, over 400 times less; on 3,000 Haar-dressed
#: CNOT and CZ inputs it ran from 1.3e-4 to 3.9, and 98% of them are cut.
PSI_TRACE_TOL = 1e-2
# --- end of tolerances -------------------------------------------------------

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
    return u.dot(SYY).dot(u.T).dot(SYY)


def kron(a, b):
    """Kronecker product of two 2x2 factors (qubit 0 the left); ValueError otherwise."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("kron expects two 2x2 factors, got shapes %r and %r" % (a.shape, b.shape))
    # Entry (2i + k, 2j + l) is a[i, j] * b[k, l], as in np.kron.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


_EYE = {2: I2, 4: I4}
_THREE_HALVES_EYE = {2: 1.5 * I2, 4: 1.5 * I4}


def is_unitary(m, tol=UNITARY_TOL):
    """Whether ||m^dag m - I||_F <= tol for a finite square matrix m."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(m).all():
        return False
    n = m.shape[0]
    r = m.conj().T.dot(m) - (_EYE[n] if n in _EYE else np.eye(n))
    return math.sqrt(np.vdot(r, r).real) <= tol


def det2(m):
    """Determinant of a 2x2 matrix, in closed form."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def det4(m):
    """Determinant of a 4x4 array, in closed form: Laplace expansion along
    rows 0 and 1, in scalar arithmetic on ``m.tolist()``."""
    return _det4_rows(m.tolist())


def _det4_rows(rows):
    """``det4`` of the matrix with the given four rows of four scalars."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def is_special_unitary(m, tol=UNITARY_TOL):
    """Whether a 2x2 or 4x4 m is unitary with |det m - 1| <= tol."""
    m = np.asarray(m)
    if not is_unitary(m, tol) or m.shape[0] not in (2, 4):
        return False
    return abs((det2 if m.shape[0] == 2 else det4)(m) - 1.0) <= tol


def _is_identity_up_to_phase(e):
    """Whether the 2x2 matrix with entries e = (m00, m01, m10, m11) is a
    multiple of the identity, entrywise to ``ZERO_TOL``."""
    m00, m01, m10, m11 = e
    return abs(m01) + abs(m10) <= ZERO_TOL and abs(m00 - m11) <= ZERO_TOL


def _polar_step(m):
    """One Newton-Schulz step m (3I - m^dag m) / 2 toward the unitary polar
    factor of a 2x2 or 4x4 m: a residual ||m^dag m - I||_F of r becomes
    about r^2.  Taken as m (1.5 I - 0.5 m^dag m), the same bit for bit:
    scaling by a power of two is exact."""
    return m.dot(_THREE_HALVES_EYE[len(m)] - 0.5 * m.conj().T.dot(m))


def require_unitary(m, caller, tol=UNITARY_TOL, size=4, special=False, symmetric=False):
    """The one input check of a public call: ``m`` as a complex128 array if
    it is a ``size`` x ``size`` unitary (with det 1 if ``special``, equal to
    its transpose if ``symmetric``) to min(UNITARY_TOL, max(tol,
    ROUNDING_TOL)).  Otherwise NotUnitary (NotSymmetricUnitary if
    ``symmetric``), naming ``caller`` and the first check that failed:
    numeric entries, shape, finite entries, unitarity, determinant or
    symmetry, with the tolerance that applied.  A NaN or negative ``tol``
    raises ValueError, naming ``caller``."""
    if not tol >= 0.0:
        raise ValueError("%s expects tol >= 0, got %r" % (caller, tol))
    tol = min(UNITARY_TOL, max(tol, ROUNDING_TOL))
    try:
        m = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        failed = "numeric-entries check failed: %s" % exc
        raise _input_error(caller, size, special, symmetric, failed) from None
    ok = m.shape == (size, size) and (is_special_unitary if special else is_unitary)(m, tol)
    if ok and symmetric:
        ok = np.linalg.norm(m - m.T) <= tol
    if not ok:
        raise _input_error(caller, size, special, symmetric, _failed_check(m, tol, size, special))
    return m


def require_count(n, name):
    """The one check of a count argument: ``n`` as a Python int if it is a
    Python or NumPy integer of at least 1, and not a bool; otherwise
    ValueError, naming the argument ``name``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("%s must be >= 1, a positive integer, got %r" % (name, n))
    return int(n)


def _input_error(caller, size, special, symmetric, failed):
    """The error of ``require_unitary``, naming the check that ``failed``."""
    kind = "symmetric unitary" if symmetric else "special-unitary" if special else "unitary"
    error = NotSymmetricUnitary if symmetric else NotUnitary
    return error("%s expects a %dx%d %s matrix; %s" % (caller, size, size, kind, failed))


def _failed_check(m, tol, size, special):
    """The first check of ``require_unitary`` that the complex128 ``m``
    fails, and by how much; the symmetry check if it passes the others."""
    if m.shape != (size, size):
        return "shape check failed: got shape %r" % (m.shape,)
    bad = m.size - np.isfinite(m).sum()
    if bad:
        return "finite-entries check failed: %d of %d entries are NaN or infinite" % (bad, m.size)
    r = m.conj().T.dot(m) - _EYE[size]
    checks = [("unitarity", "||m^dag m - I||_F", math.sqrt(np.vdot(r, r).real))]
    if special:
        checks.append(("determinant", "|det m - 1|", abs((det2 if size == 2 else det4)(m) - 1.0)))
    checks.append(("symmetry", "||m - m^T||_F", np.linalg.norm(m - m.T)))
    name, quantity, value = next(check for check in checks if not check[2] <= tol)
    return "%s check failed: %s = %.3g, not within tol=%g" % (name, quantity, value, tol)


@dataclass(frozen=True)
class CharPoly4:
    """Monic degree-4 characteristic polynomial det(X*I - M).

    ``coeffs`` holds (a_0, a_1, a_2, a_3, a_4) with a_4 == 1; for M in SU(4)
    the coefficients satisfy a_0 == 1 and conj(a_i) == a_{4-i}.
    """

    coeffs: tuple

    def as_array(self):
        return np.array(self.coeffs, dtype=np.complex128)

    def close_to(self, other, tol=DEFAULT_TOL):
        """Whether no coefficient differs by more than ``tol``, absolutely."""
        return bool(np.abs(self.as_array() - other.as_array()).max() <= tol)


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
        acc = m.dot(acc) + coeffs[5 - k] * I4
        coeffs[4 - k] = -np.trace(m.dot(acc)) / k
    return CharPoly4(tuple(coeffs))


def diagonalize_symmetric_unitary(p):
    """Diagonalize a symmetric unitary matrix by a real orthogonal one.

    Returns ``(q, d)`` with ``q`` real orthogonal, ``det(q) = +1``, and
    ``q @ p @ q.T`` equal to ``diag(d)`` within tolerance.  The rows of ``q``
    are the eigenvectors.  The result is in the canonical form of
    ``_canonical``: eigenvalues by ascending principal argument in
    (-pi, pi], ties kept stable, and eigenvector signs fixed, so that every
    orthonormal eigenbasis of a spectrum with distinct eigenvalues gives
    the same ``(q, d)``.

    Works because the real and imaginary parts of a symmetric unitary
    commute, hence share an orthonormal eigenbasis.  One ``eigh`` of the
    real symmetric cos(t) Re(p) + sin(t) Im(p) finds it for every t that
    separates the distinct eigenvalues of p (see ``_MIX_ANGLES``).
    """
    p = require_unitary(p, "diagonalize_symmetric_unitary", symmetric=True)
    return _diagonalize_symmetric_unitary((p + p.T) / 2.0)


#: Mixing angles t tried in order by the diagonalizer.  Eigenvalues e^{ia}
#: and e^{ib} of p coincide in cos(t) Re(p) + sin(t) Im(p) when
#: t = (a + b) / 2 mod pi.  t = 0 (Re(p) alone) is blind to conjugate
#: pairs, which every gamma with a real trace has, so it comes last; the
#: other angles are irrational multiples of pi, and a spectrum defeats them
#: all only if pair midpoints (a + b) / 2 sit on every one of them, as
#: those of e^{i(-1, 1, 2, 3)} do; then ``_separating_angle`` reads the
#: spectrum for one angle away from every midpoint.  The same idea, with
#: random angles, is in Qiskit's ``TwoQubitWeylDecomposition``
#: (qiskit/synthesis/two_qubit/two_qubit_decompose.py); fixed angles keep
#: every output deterministic, and ``_canonical`` makes it independent of
#: which angle succeeds.
_MIX_ANGLES = (1.0, 2.0, 0.5, 2.5, 0.0)

_OFF_DIAGONAL = np.flatnonzero(~np.eye(4, dtype=bool))


def _off_diagonal(m):
    """Largest magnitude among the off-diagonal entries of a 4x4 m."""
    return np.abs(m.take(_OFF_DIAGONAL)).max()


def _separating_angle(p):
    """The mixing angle farthest, mod pi, from every tie of the eigenvalues
    of ``p``: the centre of the widest gap between the ties.

    The ties (a + b) / 2 mod pi of the six pairs leave a gap of at least
    pi / 6, and its centre t is at least pi / 12 from each.  There the
    eigenvalues e^{ia} and e^{ib} of p become cos(t - a) and cos(t - b),
    at least sin(pi / 12) |e^{ia} - e^{ib}| apart.
    """
    angles = [cmath.phase(z) for z in np.linalg.eigvals(p).tolist()]
    ties = sorted((a + b) / 2.0 % math.pi for a, b in itertools.combinations(angles, 2))
    width, start = max((b - a, a) for a, b in zip(ties, ties[1:] + [ties[0] + math.pi]))
    return start + width / 2.0


def _diagonalize_symmetric_unitary(p):
    """``diagonalize_symmetric_unitary`` without its input checks, for a
    complex128 ``p`` that is symmetric unitary by construction: the
    eigenvectors of the first of ``_MIX_ANGLES`` that leaves q p q^T
    diagonal to ``OFF_DIAGONAL_TOL``, then of ``_separating_angle``, else
    those of the best of them.  ``p`` must be symmetric bit for bit, as
    mt.dot(mt.T) is (``invariants._form_of``): ``eigh`` reads one triangle
    of each mix, and nothing here symmetrizes it.  The public call
    symmetrizes its checked input once, at its entry."""
    best = None
    for t in _MIX_ANGLES + (None,):
        if t is None:
            # No fixed angle separates every pair of distinct eigenvalues.
            t = _separating_angle(p)
        x = math.cos(t) * p.real + math.sin(t) * p.imag
        _, v = np.linalg.eigh(x)
        m = v.T.dot(p).dot(v)
        off = _off_diagonal(m)
        if off <= OFF_DIAGONAL_TOL:
            return _canonical(v.T, m.diagonal())
        if best is None or off < best[0]:
            best = (off, v, m)
    _, v, m = best
    return _canonical(v.T, m.diagonal())


def _row_signs(rows):
    """The signs, a list of +-1.0, that put ``rows``, the rows of an
    orthogonal matrix as lists in the order given, in canonical sign: each
    row with its first entry of magnitude >= 1/4 positive (one exists, as
    some entry has magnitude >= 1/2), but row 0 with the other sign where
    det = +1 needs it.  Negating a row negates ``_det4_rows`` exactly, so
    the signed rows do not depend on the signs the rows came in."""
    signs = []
    for row in rows:
        for x in row:
            if abs(x) >= 0.25:
                break
        signs.append(1.0 if x > 0.0 else -1.0)
    if _det4_rows(rows) * signs[0] * signs[1] * signs[2] * signs[3] < 0.0:
        signs[0] = -signs[0]
    return signs


def _canonical(q, d):
    """The canonical form of an orthogonal diagonalization (rows of ``q``,
    eigenvalues ``d``): ascending principal argument of d, ties in input
    order, and the rows in the signs of ``_row_signs``.  New arrays; q is
    not modified."""
    rows, z = q.tolist(), d.tolist()
    order = sorted(range(4), key=list(map(cmath.phase, z)).__getitem__)
    rows = list(map(rows.__getitem__, order))
    signed = []
    for row, sign in zip(rows, _row_signs(rows)):
        signed.append(row if sign > 0.0 else [-row[0], -row[1], -row[2], -row[3]])
    return np.array(signed), np.array(list(map(z.__getitem__, order)))


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
    return q.dot(np.diag(dia / np.abs(dia)))
