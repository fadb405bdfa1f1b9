"""Local-equivalence invariants and CNOT-cost classification.

The central object is the invariant gamma(u) = u (sy x sy) u^T (sy x sy).
It is constant on left cosets of the local subgroup SU(2) x SU(2), its
characteristic polynomial chi[gamma] is constant on double cosets, and both
drive the classifier that predicts how many CNOT gates an operator needs.

Representatives of the same physical operator in SU(4) differ by 4th roots
of unity, under which gamma picks up a factor of +-1; every comparison here
therefore admits an optional global sign on gamma (strict=True disables it).
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .circuit import _su4_normalize

# chi[gamma] of an SU(4)-normalized CNOT: spectrum {i, i, -i, -i}.
CNOT_CHI = nm.CharPoly4((1.0, 0.0, 2.0, 0.0, 1.0))

_SIGN_FLIP = np.array([1.0, -1.0, 1.0, -1.0, 1.0])


def gamma(u):
    """u @ (sigma_y x sigma_y) @ u.T @ (sigma_y x sigma_y).

    Callers wanting coset semantics normalize u into SU(4) first.
    """
    return nm.gamma4(nm.require_unitary(u, "gamma"))


@dataclass(frozen=True)
class InvariantData:
    gamma: np.ndarray
    chi: nm.CharPoly4
    trace: complex
    spectrum: np.ndarray


def invariant_data(u):
    """gamma, its characteristic polynomial, trace, and spectrum.

    The spectrum comes from the symmetric form in the magic basis: with
    ut = E^dag u E, the matrix ut @ ut.T equals E^dag gamma(u) E, so its
    eigenvalues (computed by the real orthogonal diagonalization of
    ``numerics.diagonalize_symmetric_unitary``) are exactly the eigenvalues
    of gamma(u), in canonical order.
    """
    u = nm.require_unitary(u, "invariant_data")
    g = nm.gamma4(u)
    ut = nm.MAGIC_DAG @ u @ nm.MAGIC
    _, spectrum = nm._diagonalize_symmetric_unitary(ut @ ut.T)
    return InvariantData(
        gamma=g,
        chi=nm.charpoly4(g),
        trace=complex(np.trace(g)),
        spectrum=spectrum,
    )


def _flip_chi(coeffs):
    """Coefficients of chi[-m] given those of chi[m] (degree 4)."""
    return np.asarray(coeffs) * _SIGN_FLIP


def same_left_coset(u, v, tol=nm.DEFAULT_TOL, strict=False):
    """Whether u and v differ by a right local factor: u = v (a x b).

    Equivalent to gamma(u) == gamma(v); unless ``strict``, equality is taken
    up to the global +-1 absorbing the SU(4) representative freedom.
    """
    u, v = (nm.require_unitary(m, "same_left_coset", tol, special=True) for m in (u, v))
    gu, gv = nm.gamma4(u), nm.gamma4(v)
    if np.linalg.norm(gu - gv) <= tol:
        return True
    if strict:
        return False
    return bool(np.linalg.norm(gu + gv) <= tol)


def same_double_coset(u, v, tol=nm.DEFAULT_TOL, strict=False):
    """Whether u and v differ by local factors on both sides.

    Equivalent to chi[gamma(u)] == chi[gamma(v)], again up to the +-1 sign
    on gamma unless ``strict`` (the sign alternates the odd coefficients).
    """
    u, v = (nm.require_unitary(m, "same_double_coset", tol, special=True) for m in (u, v))
    cu, cv = (nm.charpoly4(nm.gamma4(m)).as_array() for m in (u, v))
    if nm.allclose(cu, cv, tol):
        return True
    if strict:
        return False
    return nm.allclose(cu, _flip_chi(cv), tol)


def cnot_cost(u, tol=nm.DEFAULT_TOL):
    """Minimal number of CNOTs needed to realize u with one-qubit gates.

    0: gamma is +-identity (u is local up to phase).
    1: chi[gamma] matches the CNOT class.
    2: trace of gamma is real (chi has all-real coefficients).
    3: everything else -- almost every operator.
    """
    v, _ = _su4_normalize(nm.require_unitary(u, "cnot_cost", tol))
    g = nm.gamma4(v)
    if min(np.linalg.norm(g - nm.I4), np.linalg.norm(g + nm.I4)) <= tol:
        return 0
    chi = nm.charpoly4(g).as_array()
    if nm.allclose(chi, CNOT_CHI.as_array(), tol):
        return 1
    if abs(np.trace(g).imag) <= tol:
        return 2
    return 3


def cnot_lower_bound(n):
    """ceil((4^n - 3n - 1) / 4): CNOTs required by almost all n-qubit operators."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    m = 4**n - 3 * n - 1
    return (m + 3) // 4
