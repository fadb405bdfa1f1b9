"""Universal 3-CNOT synthesis of two-qubit unitaries.

Every 4x4 unitary decomposes into exactly three CNOTs plus one-qubit
rotations.  The pipeline: extract core rotation angles from the spectrum of
the gamma invariant, build the fixed core topology, then solve for the
one-qubit factors that close the gap between the core and the target
(constructive coset matching in the magic basis).  Each gate library
emits one universal circuit, whose candidates differ only in their angles:

* CYZ   -- CNOT + {R_y, R_z}, 15 rotations.
* CXY   -- CNOT + {R_x, R_y}, by conjugating the CYZ solution with H x H.
* CXZ   -- CNOT + {R_x, R_z}, 15 rotations, core C[0->1] (R_x x R_z) C[0->1].
* BASIC -- CNOT + whole one-qubit gates, 10 gates total.

All emitted circuits are verified against the input up to global phase.  A
candidate's tag names its reading of the core angles from the spectrum:
the eigenvalue order ``ijk``, or for CXZ ``rs``, ``sr``, ``-rs``, ``-sr``;
``enumerate_circuits`` exposes the alternatives.

A call validates its input once; one generator, ``_candidates``, is all
that differs between the libraries.  It prepares the target once (the
input in SU(4), its magic-basis form and that form's diagonalization, the
one ``eigh`` of the call) and then yields the candidates in the order they
are tried, each built only when it is asked for.  A candidate is its core,
built from the target's gamma spectrum, which fixes the core eigenvalue
that answers each target row: ``_core_form`` reads the core's
diagonalizer, spectrum and q mt from its angles (no simulation, polar step
or diagonalizer), its rows in the target's order.  ``_outcomes``, the one
candidate loop, compares the two spectra row by row at ``SPECTRUM_TOL``,
up to the global sign that the SU(4) representative leaves free, reads the
one-qubit factors in closed form from two SO(4) matrices, lays out the
circuit and verifies it; the one ``simulate`` of a candidate is the
verifying one, and ``synthesize`` stops at the first that verifies.
The public stage functions (``core_params_*``, ``match_local_factors``)
check their inputs and then run the same private steps;
``match_local_factors``, whose second operator is arbitrary, first aligns
the spectra (``invariants._align_spectra``).

One function, ``_assemble``, lays out every library's circuit (a prefix,
the one-qubit factors c x d, the CNOT core, the factors a x b) and is the
one place that drops gates, those within ``ZERO_TOL`` of the identity.
Each emitted gate is built once, after the input check, from values
already checked: CXY's core and local gates come in its own axes, and a
rotation's angle is wrapped and screened for zero before it is built
trusted (``Rotation._trusted``, no ``__post_init__``); the CNOTs are two
module constants.  Only the public ``cyz_core_circuit`` checks its angles.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .circuit import (
    _CNOTS,
    _FRAME_READS,
    _X,
    _Y,
    _Z,
    CNOT,
    Circuit,
    Generic1Q,
    Rotation,
    _entries,
    _frame,
    _so4_factors,
    _su2,
    _su4_normalize,
    _zy_angles,
    simulate,
    wrap_angle,
)
from .errors import CosetMismatch, VerificationFailed
from .invariants import _align_spectra, _form_of, _magic, _magic_form, _MagicForm
from .numerics import DEFAULT_TOL


class GateLibrary(enum.Enum):
    CYZ = "cyz"
    CXY = "cxy"
    CXZ = "cxz"
    BASIC = "basic"


@dataclass(frozen=True)
class CYZCore:
    alpha: float
    beta: float
    delta: float


@dataclass(frozen=True)
class CXZCore:
    psi: float
    theta: float
    phi: float


@dataclass(frozen=True)
class SynthesisResult:
    circuit: Circuit
    residual: float
    cnot_count: int
    one_param_count: int
    basic_count: int
    eigen_order: str


#: All ordered selections of three of the four gamma eigenvalues, in
#: deterministic order; (0, 1, 2) is the canonical first choice.
EIGEN_ORDERS = tuple(itertools.permutations(range(4), 3))

#: The core's CNOTs: C[0->1] and C[1->0].
_C01, _C10 = _CNOTS


def core_params_cyz(u, order=(0, 1, 2)):
    """Rotation angles (alpha, beta, delta) of the CYZ core for u.

    ``order`` picks which three eigenvalues e^{ix}, e^{iy}, e^{iz} of
    gamma(u) play the roles x, y, z.  Each selected eigen-angle is shifted
    by -pi/2 first: the raw core circuit built from unit-phase CNOTs sits a
    quarter turn away from its SU(4) representative, and the shift makes
    the spectrum of gamma(core) land exactly on that of gamma(u) (up to the
    global sign).
    """
    u = nm.require_unitary(u, "core_params_cyz", special=True)
    return _cyz_params(_magic_form(u).d, order)


def _cyz_params(spectrum, order):
    """``core_params_cyz`` from the canonically ordered spectrum of gamma(u)."""
    angles = np.angle(spectrum).tolist()
    i, j, k = order
    x, y, z = angles[i] - math.pi / 2.0, angles[j] - math.pi / 2.0, angles[k] - math.pi / 2.0
    return CYZCore(alpha=(x + y) / 2.0, beta=(x + z) / 2.0, delta=(y + z) / 2.0)


def cyz_core_circuit(params):
    """The fixed three-CNOT core with the given rotation angles.

    As a matrix formula (rightmost factor applied first):
    C[1->0] (I x Ry(alpha)) C[0->1] (Rz(delta) x Ry(beta)) C[1->0].
    ValueError unless every angle is finite.
    """
    if not all(map(math.isfinite, (params.delta, params.beta, params.alpha))):
        raise ValueError("rotation angle must be finite")
    return Circuit(_cyz_core_gates(params))


def _cyz_core_gates(params):
    """The gates of ``cyz_core_circuit``, its rotations built trusted: the
    angles of ``_cyz_params`` are finite by construction."""
    trusted = Rotation._trusted
    return (_C10, trusted(_Z, 0, params.delta), trusted(_Y, 1, params.beta), _C01,
            trusted(_Y, 1, params.alpha), _C10)


def _cxy_core_gates(params):
    """``_cyz_core_gates`` in CXY: C[0->1] Rx(delta) Ry(-beta) C[1->0] Ry(-alpha) C[0->1]."""
    trusted = Rotation._trusted
    return (_C01, trusted(_X, 0, params.delta), trusted(_Y, 1, -params.beta), _C10,
            trusted(_Y, 1, -params.alpha), _C01)


_PAIRINGS = (((0, 3), (1, 2)), ((0, 2), (1, 3)), ((0, 1), (2, 3)))


def _conjugate_pair_angles(spectrum):
    """Split a conjugation-closed unit spectrum into angles r >= s in [0, pi]
    and the indices (of e^{ir}, e^{-ir}, e^{is}, e^{-is}) where they sit.

    The multiset is {e^{+-ir}, e^{+-is}}; the pairing whose products are
    nearest 1 is taken, and each pair's angle is read from its chord and
    its mean, so an eigenvalue -1 gives pi whatever the sign of its zero
    imaginary part.  In each pair the eigenvalue with the larger imaginary
    part, the first on a tie, is e^{+i angle}; r = s keeps the pairing's
    order.
    """
    z = spectrum.tolist()
    best = min(_PAIRINGS, key=lambda prs: max(abs(z[i] * z[j] - 1.0) for i, j in prs))
    pairs = []
    for i, j in best:
        angle = math.atan2(abs(z[j] - z[i]) / 2.0, (z[i] + z[j]).real / 2.0)
        pairs.append((angle, (i, j) if z[i].imag >= z[j].imag else (j, i)))
    (r, rows_r), (s, rows_s) = sorted(pairs, key=lambda pair: pair[0], reverse=True)
    return r, s, rows_r + rows_s


def core_params_cxz(u_prime):
    """CXZ core parameters (psi, theta, phi) for the target ``u_prime``.

    With U = u_prime C[0->1], the diagonal entries t_i of gamma(U^T)^T fix
    tan(psi) = Im(t1+t2+t3+t4) / Re(t1+t4-t2-t3); multiplying U by the
    two-CNOT diagonal Delta(psi) makes the trace of gamma real, so the
    spectrum falls into conjugate pairs {e^{+-ir}, e^{+-is}} and
    theta = (r+s)/2, phi = (r-s)/2.  psi is atan2 of the two (read as
    ``_cxz_psi`` reads them where they vanish); psi + pi would do as well:
    Delta(psi + pi) = -i Delta(psi) (Z x Z), with Z x Z local.
    """
    params, _, _ = _cxz_state(nm.require_unitary(u_prime, "core_params_cxz", special=True))
    return params


def match_local_factors(u, v):
    """One-qubit factors (a, b, c, d) with u = (a x b) v (c x d) up to phase.

    Requires u and v in the same double coset.  Both operators are taken to
    the magic basis, where the symmetric forms ut ut^T and vt vt^T share a
    spectrum; aligning their orthogonal diagonalizers produces the left
    local factor, and ct = (q_v vt)^dag (q_u ut) is real orthogonal and
    produces the right one.  When the spectra agree only up to the global
    sign of gamma, v is matched as i v, which is invisible up to phase;
    CosetMismatch when ``invariants._align_spectra`` leaves them more than
    ``SPECTRUM_TOL`` apart.
    """
    u, v = (nm.require_unitary(m, "match_local_factors", special=True) for m in (u, v))
    return tuple(_su2(*x) for x in _aligned_factors(_magic_form(u), _magic_form(v)))


def _aligned_factors(fu, fv):
    """``_local_factors`` for a form fv whose rows do not yet answer those
    of fu, in the order of ``invariants._align_spectra`` and the signs of
    ``numerics._row_signs``, as ``_core_form`` gives a core's: the factors
    do not depend on the order or the signs in which fv gave its rows."""
    _, perm = _align_spectra(fu.d, fv.d)
    q, qmt = fv.q[perm], fv.qmt[perm]
    signs = nm._row_signs(q)
    return _local_factors(fu, fv._replace(q=q * signs, d=fv.d[perm], qmt=qmt * signs))


def _local_factors(fu, fv):
    """The quaternions (a, b, c, d) of the factors of ``match_local_factors``
    from the magic forms of u and of v whose rows answer each other: row k
    of each diagonalizer has eigenvalue fu.d[k] up to one global sign.  They
    are read in closed form from the SO(4) matrices qu^T qv (for a x b) and
    ct = (qv vt)^dag (qu ut) (for c x d), whose two products the forms
    carry as qmt.  The sign is the better of +-1, +1 on a tie;
    CosetMismatch when the rows stay more than ``SPECTRUM_TOL`` apart.
    With sign -1, v is replaced by i v: gamma(i v) = -gamma(v) has the same
    diagonalizer, and the factor i goes into ct, whose real part is then
    Im(ct)."""
    (u0, u1, u2, u3), (v0, v1, v2, v3) = fu.d.tolist(), fv.d.tolist()
    plus = max(abs(u0 - v0), abs(u1 - v1), abs(u2 - v2), abs(u3 - v3))
    minus = max(abs(u0 + v0), abs(u1 + v1), abs(u2 + v2), abs(u3 + v3))
    if min(plus, minus) > nm.SPECTRUM_TOL:
        raise CosetMismatch("gamma spectra do not match row by row")
    ct = fv.qmt.conj().T.dot(fu.qmt)
    a, b = _so4_factors(fu.q.T.dot(fv.q))
    c, d = _so4_factors(ct.real if plus <= minus else ct.imag)
    return a, b, c, d


#: CXY is CYZ conjugated by H x H: R_z(t) becomes R_x(t), R_y(t) R_y(-t) and
#: C[i->j] C[j->i], as ``_cxy_core_gates`` and ``_local_gates`` build them.
_CXY_CONJ = nm.kron(nm.HADAMARD, nm.HADAMARD)


_ZX_READ = _FRAME_READS[_Z, _X]


def _local_gates(x, qubit, lib):
    """The gates of one quaternion x from ``_local_factors``: its SU(2)
    matrix in BASIC, else Rz(psi) R_inner(phi) Rz(theta) as ``_zy_angles``
    reads them in the frame (Z, inner), inner X in CXZ and Y otherwise, zero
    angles included (``_assemble`` drops them; at the gimbal psi is 0), in CXY
    conjugated by H (``_CXY_CONJ``): Rx(psi) Ry(-phi) Rx(theta).  The angles
    are finite, theta and psi wrapped and phi in [0, pi]: built trusted."""
    if lib is GateLibrary.BASIC:
        return (Generic1Q._trusted(qubit, _su2(*x)),)
    inner, x = (_X, _frame(x, _ZX_READ)) if lib is GateLibrary.CXZ else (_Y, x)
    theta, phi, psi = _zy_angles(x)
    outer, phi = (_X, -phi) if lib is GateLibrary.CXY else (_Z, phi)
    trusted = Rotation._trusted
    return trusted(outer, qubit, psi), trusted(inner, qubit, phi), trusted(outer, qubit, theta)


def _assemble(prefix, core, factors, lib):
    """The circuit ``prefix``, c x d, ``core``, a x b for the quaternions (a,
    b, c, d) of ``_local_factors``, whose gates ``_local_gates`` gives in
    those of ``lib``, as ``_candidates`` gives the prefix and core.  Each
    rotation's angle is wrapped to (-pi, pi] (by ``wrap_angle`` only if
    outside it) and dropped within ``ZERO_TOL`` of 0, and only then is the
    rotation built, trusted, if it differs from the given one; each
    Generic1Q is dropped within ``ZERO_TOL`` of the identity.  Every CNOT
    emitted is one of ``_CNOTS``."""
    a, b, c, d = factors
    right = _local_gates(c, 0, lib) + _local_gates(d, 1, lib)
    left = _local_gates(a, 0, lib) + _local_gates(b, 1, lib)
    gates = []
    for g in itertools.chain(prefix, right, core, left):
        kind = type(g)
        if kind is Rotation:
            angle = g.angle
            wrapped = angle if -math.pi < angle <= math.pi else wrap_angle(angle)
            if abs(wrapped) <= nm.ZERO_TOL:
                continue
            if wrapped != angle:
                g = Rotation._trusted(g.axis, g.qubit, wrapped)
        elif kind is CNOT:
            g = _CNOTS[g.control]
        elif nm._is_identity_up_to_phase(_entries(g)):
            continue
        gates.append(g)
    return Circuit(tuple(gates))


#: The factor that takes an operator of determinant exactly -1 to SU(4), bit
#: for bit as ``_su4_normalize`` does: u C[0->1], u in SU(4), in
#: ``_cxz_state``, and the CYZ core, whose closed form (``_core_form``)
#: carries it.
_CORE_PHASE = cmath.exp(-1j * (math.pi / 4.0))


#: The constant bases B (rows) of ``_core_form``, and C of the CYZ core, B
#: with its last two rows swapped.  Their rows lead with a positive entry
#: and det B = +1, so B in any order, row 0 negated after an odd one, is in
#: the signs of ``numerics._row_signs``.
_CYZ_BASIS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]]
) / math.sqrt(2.0)
_CYZ_IMAGE = _CYZ_BASIS[[0, 1, 3, 2]]
_CXZ_BASIS = np.eye(4)


def _signed_rows(basis, image):
    """For every row order sigma, as a tuple: B[sigma] and C[sigma] for
    B = ``basis`` and C = ``image``, row 0 of each negated when sigma is
    odd, read-only.  B[sigma] is then in the signs of ``numerics._row_signs``."""
    sigmas = list(itertools.permutations(range(4)))
    signs = np.ones((len(sigmas), 4, 1))
    signs[[sum(j > k for j, k in itertools.combinations(p, 2)) % 2 == 1 for p in sigmas], 0] = -1.0
    qs, rows = basis[sigmas] * signs, image[sigmas] * signs
    qs.flags.writeable = rows.flags.writeable = False
    return dict(zip(sigmas, zip(qs, rows)))


#: ``_signed_rows`` of the CYZ and the CXZ core, read by ``_core_form``.
_CYZ_SIGNED_ROWS = _signed_rows(_CYZ_BASIS, _CYZ_IMAGE)
_CXZ_SIGNED_ROWS = _signed_rows(_CXZ_BASIS, _CXZ_BASIS)


def _core_form(params, sigma):
    """The ``_MagicForm`` of a candidate core in SU(4), read from its angles:
    no simulation, polar step or diagonalizer.  ``params`` is a ``CYZCore``
    or a CXZ pair (theta, phi).  Row t of the form is core row ``sigma[t]``
    (a list), whose eigenvalue answers the target's row t.

    In both cases the core's magic form is mt = B^T diag(lam) C for
    constant real orthogonal B and C, so the rows of B diagonalize
    mt mt^T = B^T diag(lam^2) B, d = lam^2 and q mt = diag(lam) C:

    * CYZ: B and C are ``_CYZ_BASIS`` and ``_CYZ_IMAGE``, and
      lam_k = e^{-i pi/4} e^{i s_k . (alpha, beta, delta) / 2} for the sign
      vectors s = (+ + -), (- - -), (+ - +), (- + +); e^{-i pi/4} is
      ``_CORE_PHASE``.
    * CXZ: CNOT (Rx(theta) x Rz(phi)) CNOT = exp(-i theta XX / 2)
      exp(-i phi ZZ / 2) has determinant 1 and is diagonal in the magic
      basis: B = C = I and lam = e^{-i(theta + phi)/2}, e^{i(theta - phi)/2},
      e^{-i(theta - phi)/2}, e^{i(theta + phi)/2}.

    The rows are taken in the order sigma, q = B[sigma] and
    q mt = diag(lam[sigma]) C[sigma], with row 0 of B[sigma] and C[sigma]
    negated when sigma is odd, so that det q = +1; both signed row sets
    are read from ``_CYZ_SIGNED_ROWS`` or ``_CXZ_SIGNED_ROWS``."""
    if type(params) is CYZCore:
        p, exp = _CORE_PHASE, cmath.exp
        a, b, c = exp(0.5j * params.alpha), exp(0.5j * params.beta), exp(0.5j * params.delta)
        ea, eb, ec = a.conjugate(), b.conjugate(), c.conjugate()
        lam = (p * (a * b * ec), p * (ea * eb * ec), p * (a * eb * c), p * (ea * b * c))
        table = _CYZ_SIGNED_ROWS
    else:
        theta, phi = params
        s, t = cmath.exp(0.5j * (theta + phi)), cmath.exp(0.5j * (theta - phi))
        lam, table = (s.conjugate(), t, t.conjugate(), s), _CXZ_SIGNED_ROWS
    i, j, k, l = sigma
    x0, x1, x2, x3 = lam[i], lam[j], lam[k], lam[l]
    q, image = table[i, j, k, l]
    qmt = np.array(((x0,), (x1,), (x2,), (x3,))) * image
    return _MagicForm(q, np.array((x0 * x0, x1 * x1, x2 * x2, x3 * x3)), qmt)


def _cyz_rows(order):
    """The sigma of ``_core_form`` for the eigenvalue order (i, j, k) of
    ``_cyz_params``: core rows 0, 2 and 3 have the eigenvalues -d[i],
    -d[j] and -d[k] of the target's spectrum d, and row 1, whose
    eigenvalue is -1 / (d[i] d[j] d[k]), that of the fourth row."""
    sigma = [1, 1, 1, 1]
    i, j, k = order
    sigma[i], sigma[j], sigma[k] = 0, 2, 3
    return sigma


def _cxz_rows(rows, neg, swap_rs):
    """The sigma of ``_core_form`` for a CXZ variant, from the indices
    ``rows`` of e^{ir}, e^{-ir}, e^{is}, e^{-is} in the target's spectrum
    (``_conjugate_pair_angles``).  The variant's core rows 0-3 have the
    eigenvalues e^{-ia}, e^{ib}, e^{-ib}, e^{ia} for a = theta + phi and
    b = theta - phi: (a, b) is (r, s), and (s, r) after ``swap_rs``;
    ``neg`` negates both."""
    pr, mr, ps, ms = rows
    ap, am, bp, bm = (ps, ms, pr, mr) if swap_rs else rows
    if neg:
        ap, am, bp, bm = am, ap, bm, bp
    sigma = [0, 0, 0, 0]
    sigma[am], sigma[bp], sigma[bm], sigma[ap] = 0, 1, 2, 3
    return sigma


#: The diagonal s of E^dag (Z x Z) E: Delta(psi) = exp(-i psi (Z x Z) / 2)
#: scales the columns of a magic form by e^{-i psi s / 2}.
_ZZ_MAGIC = np.array((1.0, 1.0, -1.0, -1.0))


def _cxz_state(u_norm):
    """The per-input state of the CXZ construction: its core parameters,
    the indices of e^{+-ir} and e^{+-is} in the spectrum of gamma(M), and
    the magic form of M = u C[0->1] Delta(psi) in SU(4), which every variant
    is matched against; no variant changes any of them.  One polar step of
    the magic form mt of u C[0->1] serves psi (``_cxz_psi``) and M: mt
    diag(e^{-i psi s / 2}), s = ``_ZZ_MAGIC``.  ``_su4_normalize`` takes out
    the rounding phase of det(u C[0->1] e^{-i pi/4}), which would decide
    the ties of degenerate spectra (SWAP, the magic gate)."""
    mt = _magic(_su4_normalize(u_norm.dot(nm.CNOT01) * _CORE_PHASE)[0])
    psi = _cxz_psi(mt)
    target = _form_of(mt * np.exp(-0.5j * psi * _ZZ_MAGIC))
    r, s, rows = _conjugate_pair_angles(target.d)
    return CXZCore(psi=psi, theta=(r + s) / 2.0, phi=(r - s) / 2.0), rows, target


def _cxz_psi(mt):
    """psi for the magic form mt of u C[0->1]: for p = sum(g), q = s . g and
    g the diagonal of mt^T mt, tr gamma(M) = cos(psi) p - i sin(psi) q is
    real at tan(psi) = Im p / Re q.  Within ``ZERO_TOL`` of 0 the two are
    rounding.  On the CNOT class, |p| at least ``PSI_TRACE_TOL``, they
    vanish for every psi, and so do p and q on the identity class, CZ, SWAP
    and the magic gate: psi = 0.  Next to the identity class they are of
    second order in the distance, and are read as the imaginary traces of
    the spectra at psi = 0 and pi/2."""
    g0, g1, g2, g3 = (mt * mt).sum(axis=0).tolist()
    p, q = g0 + g1 + g2 + g3, g0 + g1 - g2 - g3
    if max(abs(p), abs(q)) <= nm.ZERO_TOL:
        return 0.0
    y, x = p.imag, q.real
    if max(abs(y), abs(x)) <= nm.ZERO_TOL:
        if abs(p) >= nm.PSI_TRACE_TOL:
            return 0.0
        y = _imag_trace(_form_of(mt).d)
        x = -_imag_trace(_form_of(mt * np.exp(-0.25j * math.pi * _ZZ_MAGIC)).d)
    return math.atan2(y, x)


def _imag_trace(d):
    """Im(sum d) of a unit spectrum d, without the cancellation of its
    near-conjugate pairs: each pair (z, w) of ``_conjugate_pair_angles``
    adds Im(z + w) = 2 sin(h) cos(arg z - h), h = arg(z w) / 2."""
    i, j, k, l = _conjugate_pair_angles(d)[2]
    total = 0.0
    for z, w in ((d[i], d[j]), (d[k], d[l])):
        h = cmath.phase(z * w) / 2.0
        total += 2.0 * math.sin(h) * math.cos(cmath.phase(z) - h)
    return total


#: Every CXZ variant (neg, swap_rs), in the order they are tried, with tag.
_CXZ_TAGS = {
    (False, False): "rs",
    (False, True): "sr",
    (True, False): "-rs",
    (True, True): "-sr",
}


def _candidates(u, lib):
    """Every candidate of ``lib`` for a validated unitary ``u``, in the order
    they are tried, each as (target, prefix, core, core form, tag): the
    target's magic form, the gates before c x d, the core's gates (in
    ``lib``), its ``_core_form`` with rows answering the target's, its tag.

    The target is prepared once, before the first candidate: u in SU(4)
    and its magic form (for CXY those of the H x H conjugate), or for CXZ
    the state of ``_cxz_state``, whose prefix Rz(-psi) on wire 1, C[0->1]
    every variant shares; CXY's core form is in that conjugate's frame.
    Each candidate then builds only its core, when it is asked for, so a
    call that verifies its first builds no other.  A CXZ variant (neg,
    swap_rs) negates phi after ``swap_rs``, exchanging r and s, and both after ``neg``."""
    if lib is GateLibrary.CXY:
        u = _CXY_CONJ.dot(u).dot(_CXY_CONJ)
    u_norm, _ = _su4_normalize(u)
    if lib is not GateLibrary.CXZ:
        target = _magic_form(u_norm)
        for order in EIGEN_ORDERS:
            params = _cyz_params(target.d, order)
            core = (_cxy_core_gates if lib is GateLibrary.CXY else _cyz_core_gates)(params)
            yield target, (), core, _core_form(params, _cyz_rows(order)), "%d%d%d" % order
        return
    params, rows, target = _cxz_state(u_norm)
    prefix = (Rotation._trusted(_Z, 1, -params.psi), _C01)
    for (neg, swap_rs), tag in _CXZ_TAGS.items():
        theta, phi = params.theta, -params.phi if swap_rs else params.phi
        if neg:
            theta, phi = -theta, -phi
        core = (_C01, Rotation._trusted(_X, 0, theta), Rotation._trusted(_Z, 1, phi), _C01)
        yield target, prefix, core, _core_form((theta, phi), _cxz_rows(rows, neg, swap_rs)), tag


def _result_for(u, circuit, tag, tol):
    residual = nm.phase_distance(simulate(circuit), u)
    if residual > tol:
        raise VerificationFailed("residual %.3g exceeds tol %.3g" % (residual, tol))
    # One pass over the gates for the counts; an emitted circuit has no
    # SWAP, so every gate counts 1 at the basic level.
    kinds = list(map(type, circuit.gates))
    return SynthesisResult(
        circuit=circuit,
        residual=residual,
        cnot_count=kinds.count(CNOT),
        one_param_count=kinds.count(Rotation),
        basic_count=len(kinds),
        eigen_order=tag,
    )


def _outcomes(u, lib, tol, caller):
    """Check ``u`` once, then try every candidate of ``lib`` in order,
    yielding for each its verified SynthesisResult or the
    VerificationFailed or CosetMismatch it raised."""
    u = nm.require_unitary(u, caller, tol)
    lib = GateLibrary(lib)
    for target, prefix, core, form, tag in _candidates(u, lib):
        try:
            circuit = _assemble(prefix, core, _local_factors(target, form), lib)
            outcome = _result_for(u, circuit, tag, tol)
        except (VerificationFailed, CosetMismatch) as exc:
            outcome = exc
        yield outcome


def synthesize(u, lib=GateLibrary.CYZ, tol=DEFAULT_TOL):
    """Decompose a two-qubit unitary over the given library.

    Emits the universal 3-CNOT topology unconditionally and verifies the
    simulated circuit against ``u`` up to global phase.  Candidate
    eigenvalue orderings are tried in deterministic order; the first
    verified circuit wins.
    """
    last_error = None
    for outcome in _outcomes(u, lib, tol, "synthesize"):
        if isinstance(outcome, SynthesisResult):
            return outcome
        last_error = outcome
    raise VerificationFailed(
        "no candidate ordering produced a verified circuit: %s" % last_error
    )


def enumerate_circuits(u, lib=GateLibrary.CYZ, limit=8, tol=DEFAULT_TOL):
    """The verified circuits of the first ``limit`` candidates that verify,
    one per candidate, in the order they are tried."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    results = []
    for result in _outcomes(u, lib, tol, "enumerate_circuits"):
        if isinstance(result, SynthesisResult):
            results.append(result)
            if len(results) >= limit:
                break
    if not results:
        raise VerificationFailed("no verified circuit found")
    return results
