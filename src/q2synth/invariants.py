"""Local-equivalence invariants and CNOT-cost classification.

The central object is the invariant gamma(u) = u (sy x sy) u^T (sy x sy).
It is constant on left cosets of the local subgroup SU(2) x SU(2), and its
spectrum, like chi[gamma], on double cosets.  Every local-equivalence
decision between two given operators (``same_double_coset``, ``cnot_cost``,
``synthesis.match_local_factors``) is one test, ``_align_spectra``, which
aligns two gamma spectra; chi[gamma] is reported, and no decision reads it.
A synthesis candidate needs no search: its core is built from the target's
spectrum, which fixes the row correspondence, and only the sign of gamma
is compared.

Representatives of the same physical operator in SU(4) differ by 4th roots
of unity, under which gamma picks up a factor of +-1; every comparison here
therefore admits an optional global sign on gamma (strict=True disables it).
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .circuit import _su4_normalize

#: Every permutation of four eigenvalues, the identity first; then each
#: again with 4 added, to index -dv in (dv, -dv).
_PERMS = np.array(list(itertools.permutations(range(4))))
_SIGNED_PERMS = np.concatenate((_PERMS, _PERMS + 4))


class _MagicForm(NamedTuple):
    """An operator m in the magic basis, mt = E^dag m E, as the local layer
    of synthesis reads it: the real orthogonal diagonalization (q, d) of the
    symmetric form mt mt^T, whose eigenvalues d are those of gamma(m), and
    the product q mt."""

    q: np.ndarray
    d: np.ndarray
    qmt: np.ndarray


def _magic(m):
    """The magic form mt = E^dag m E of a checked 4x4 unitary, one polar
    step (``numerics._polar_step``) nearer unitary: an input up to
    UNITARY_TOL from unitary still splits into one-qubit factors to
    LOCAL_TOL."""
    return nm._polar_step(nm.MAGIC_DAG.dot(m).dot(nm.MAGIC))


def _magic_form(m):
    """``_MagicForm`` of a checked 4x4 unitary, from its ``_magic`` form.  A
    synthesis core, unitary by construction, takes its form from its angles
    (``synthesis._core_form``) instead."""
    return _form_of(_magic(m))


def _form_of(mt):
    """``_MagicForm`` of an operator from its magic form ``mt``, unitary to rounding."""
    q, d = nm._diagonalize_symmetric_unitary(mt.dot(mt.T))
    return _MagicForm(q, d, q.dot(mt))


def _align_spectra(du, dv, strict=False):
    """The one local-equivalence test: (distance, perm) minimizing
    distance = max |du - sign dv[perm]| over every permutation and
    sign = +-1 (+1 only if ``strict``), the identity with sign +1 winning
    ties.  The distance is linear in the distance between the operators,
    also where eigenvalues coincide."""
    n = len(_PERMS)
    cands = np.concatenate((dv, -dv))[_SIGNED_PERMS[:n] if strict else _SIGNED_PERMS]
    err = np.abs(du - cands).max(axis=1)
    k = int(err.argmin())
    return float(err[k]), _PERMS[k % n]


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

    The spectrum is that of the symmetric form ut ut^T = E^dag gamma(u) E
    (``_magic_form``), in the canonical order of its diagonalization.
    """
    u = nm.require_unitary(u, "invariant_data")
    g = nm.gamma4(u)
    return InvariantData(
        gamma=g,
        chi=nm.charpoly4(g),
        trace=complex(np.trace(g)),
        spectrum=_magic_form(u).d,
    )


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

    Equivalent to gamma(u) and gamma(v) having the same spectrum; true when
    ``_align_spectra`` leaves a largest eigenvalue difference of at most
    ``tol``, again up to the +-1 sign on gamma unless ``strict``.
    """
    u, v = (nm.require_unitary(m, "same_double_coset", tol, special=True) for m in (u, v))
    return _align_spectra(_magic_form(u).d, _magic_form(v).d, strict)[0] <= tol


def cnot_cost(u, tol=nm.DEFAULT_TOL):
    """Minimal number of CNOTs needed to realize u with one-qubit gates.

    Read from the spectrum d of gamma(u) for u in SU(4), by
    ``_align_spectra`` at ``tol`` (a largest eigenvalue difference):

    0: d aligns with (1, 1, 1, 1): gamma is +-identity, u is local.
    1: d aligns with (i, i, -i, -i), the spectrum of the CNOT class.
    2: d aligns with its own conjugate (sign +1): the trace of gamma is real.
    3: everything else -- almost every operator.

    The first two references need no search: +-(1, 1, 1, 1) is degenerate,
    and (i, i, -i, -i), its own negative, takes the two eigenvalues of
    largest imaginary part at i, as |z - i| falls when Im z grows.

    A screen answers 3 before any diagonalization: each of classes 0-2
    bounds the imaginary part of the trace of gamma, sum d, so
    |Im sum d| > 4 tol leaves only class 3.

    * 0 or 1: |sum d -+ 4| <= 4 tol or |sum d| <= 4 tol, so |Im sum d| <= 4 tol.
    * 2: sum (d - conj d[perm]) = 2i Im sum d, so |Im sum d| <= 2 tol.
    * sum d = tr(mt mt^T), the sum of the squares of the entries of the
      magic form mt, up to rounding, which ``ROUNDING_TOL`` bounds.
    """
    v, _ = _su4_normalize(nm.require_unitary(u, "cnot_cost", tol))
    mt = _magic(v)
    entries = mt.ravel()
    if abs(entries.dot(entries).imag) > 4.0 * tol + nm.ROUNDING_TOL:
        return 3
    d = _form_of(mt).d
    z = d.tolist()
    if min(max(abs(x - 1.0) for x in z), max(abs(x + 1.0) for x in z)) <= tol:
        return 0
    lo0, lo1, hi0, hi1 = sorted(z, key=lambda x: x.imag)
    if max(abs(lo0 + 1j), abs(lo1 + 1j), abs(hi0 - 1j), abs(hi1 - 1j)) <= tol:
        return 1
    if _align_spectra(d, d.conj(), strict=True)[0] <= tol:
        return 2
    return 3


def cnot_lower_bound(n):
    """ceil((4^n - 3n - 1) / 4): CNOTs required by almost all n-qubit operators."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    m = 4**n - 3 * n - 1
    return (m + 3) // 4
