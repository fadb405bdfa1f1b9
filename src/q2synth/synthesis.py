"""Universal 3-CNOT synthesis of two-qubit unitaries.

Every 4x4 unitary decomposes into exactly three CNOTs plus one-qubit
rotations.  The pipeline: extract core rotation angles from the spectrum of
the gamma invariant, build the fixed core topology, then solve for the
one-qubit factors that close the gap between the core and the target
(constructive coset matching in the magic basis).  Supported gate libraries:

* CYZ   -- CNOT + {R_y, R_z}, 15 rotations.
* CXY   -- CNOT + {R_x, R_y}, by conjugating the CYZ solution with H x H.
* CXZ   -- CNOT + {R_x, R_z}, different core with a trailing R_z.
* BASIC -- CNOT + whole one-qubit gates, 10 gates total.

All emitted circuits are verified against the input up to global phase; the
eigenvalue-ordering freedom in the core extraction yields alternative
circuits, which ``enumerate_circuits`` exposes.

Local equivalence is decided from the spectrum of gamma alone: a core
matches the target when their gamma spectra align, up to the global sign
that the SU(4) representative leaves free.  A call validates its input once
and prepares the per-input state once (the input in SU(4), its magic-basis
form and that form's diagonalization, the one ``eigh`` of the call); each
candidate then adds only its own core, whose diagonalization is a constant
basis (``numerics._CORE_BASES``), and reads its one-qubit factors in closed
form from two SO(4) matrices.  The public stage functions
(``core_params_*``, ``match_local_factors``) check their inputs and then run
the same private steps.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .circuit import (
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    _euler_angles,
    _so4_factors,
    _su4_normalize,
    simulate,
    su4_normalize,
    wrap_angle,
)
from .errors import CosetMismatch, NotUnitary, VerificationFailed
from .invariants import invariant_data

DEFAULT_TOL = 1e-8

_ZERO_ANGLE = 1e-12


def _vtol(tol):
    """Input-validation tolerance: tracks tol but never below noise floor."""
    return max(tol * 10.0, 1e-9)


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


def core_params_cyz(u, order=(0, 1, 2), tol=DEFAULT_TOL):
    """Rotation angles (alpha, beta, delta) of the CYZ core for u.

    ``order`` picks which three eigenvalues e^{ix}, e^{iy}, e^{iz} of
    gamma(u) play the roles x, y, z.  Each selected eigen-angle is shifted
    by -pi/2 first: the raw core circuit built from unit-phase CNOTs sits a
    quarter turn away from its SU(4) representative, and the shift makes
    the spectrum of gamma(core) land exactly on that of gamma(u) (up to the
    global sign).
    """
    u = np.asarray(u, dtype=np.complex128)
    if not nm.is_special_unitary(u, _vtol(tol)):
        raise NotUnitary("core_params_cyz expects a special-unitary matrix")
    return _cyz_params(invariant_data(u, max(tol, 1e-10)).spectrum, order)


def _cyz_params(spectrum, order):
    """``core_params_cyz`` from the canonically ordered spectrum of gamma(u)."""
    angles = np.angle(spectrum)
    x, y, z = (angles[i] - math.pi / 2.0 for i in order)
    return CYZCore(alpha=(x + y) / 2.0, beta=(x + z) / 2.0, delta=(y + z) / 2.0)


def cyz_core_circuit(params):
    """The fixed three-CNOT core with the given rotation angles.

    As a matrix formula (rightmost factor applied first):
    C[1->0] (I x Ry(alpha)) C[0->1] (Rz(delta) x Ry(beta)) C[1->0].
    """
    return Circuit(
        (
            CNOT(1, 0),
            Rotation(Axis.Z, 0, params.delta),
            Rotation(Axis.Y, 1, params.beta),
            CNOT(0, 1),
            Rotation(Axis.Y, 1, params.alpha),
            CNOT(1, 0),
        )
    )


_PAIRINGS = (((0, 3), (1, 2)), ((0, 2), (1, 3)), ((0, 1), (2, 3)))


def _conjugate_pair_angles(spectrum):
    """Split a conjugation-closed unit spectrum into angles r >= s in [0, pi].

    The multiset is {e^{+-ir}, e^{+-is}}; the pairing whose products are
    nearest 1 is taken, and each pair's angle is read from its chord and
    its mean, so an eigenvalue -1 gives pi whatever the sign of its zero
    imaginary part.
    """
    best = min(
        _PAIRINGS,
        key=lambda prs: max(abs(spectrum[i] * spectrum[j] - 1.0) for i, j in prs),
    )
    angles = (
        math.atan2(abs(spectrum[j] - spectrum[i]) / 2.0, (spectrum[i] + spectrum[j]).real / 2.0)
        for i, j in best
    )
    r, s = sorted(angles, reverse=True)
    return r, s


def _delta_matrix(psi):
    return nm.CNOT01 @ nm.kron(nm.I2, np.diag([np.exp(-0.5j * psi), np.exp(0.5j * psi)])) @ nm.CNOT01


def core_params_cxz(u_prime, tol=DEFAULT_TOL):
    """CXZ core parameters (psi, theta, phi) for the target ``u_prime``.

    With U = u_prime C[0->1], the diagonal entries t_i of gamma(U^T)^T fix
    tan(psi) = Im(t1+t2+t3+t4) / Re(t1+t4-t2-t3); multiplying U by the
    two-CNOT diagonal Delta(psi) makes the trace of gamma real, so the
    spectrum falls into conjugate pairs {e^{+-ir}, e^{+-is}} and
    theta = (r+s)/2, phi = (r-s)/2.  psi is atan2 of the two (0 when both
    vanish) or that plus pi, whichever leaves the smaller imaginary trace.
    """
    u_prime = np.asarray(u_prime, dtype=np.complex128)
    if not nm.is_special_unitary(u_prime, _vtol(tol)):
        raise NotUnitary("core_params_cxz expects a special-unitary matrix")
    u_mat, _ = su4_normalize(u_prime @ nm.CNOT01)
    psi, m_mat = _cxz_shift(u_mat)
    return _cxz_params(psi, invariant_data(m_mat, max(tol, 1e-10)).spectrum)


def _cxz_shift(u_mat):
    """(psi, M) for U = ``u_mat`` in SU(4): the angle psi of
    ``core_params_cxz`` and M = su4(U Delta(psi)), whose gamma has a real
    trace."""
    t = np.diag(nm.SYY @ u_mat.T @ nm.SYY @ u_mat)
    psi = math.atan2(float(np.imag(t.sum())), float(np.real(t[0] + t[3] - t[1] - t[2])))
    # tan fixes psi modulo pi; keep whichever branch actually kills Im tr.
    best_psi, best_m, best_im = None, None, None
    for cand in (psi, wrap_angle(psi + math.pi)):
        m_mat, _ = _su4_normalize(u_mat @ _delta_matrix(cand))
        im = abs(np.trace(nm.gamma4(m_mat)).imag)
        if best_im is None or im < best_im:
            best_psi, best_m, best_im = cand, m_mat, im
    return best_psi, best_m


def _cxz_params(psi, spectrum):
    """``core_params_cxz`` from psi and the spectrum of gamma(M)."""
    r, s = _conjugate_pair_angles(spectrum)
    return CXZCore(psi=psi, theta=(r + s) / 2.0, phi=(r - s) / 2.0)


#: Every permutation of four eigenvalues, the identity first, and its
#: parity (+1 even, -1 odd).
_PERMS = np.array(list(itertools.permutations(range(4))))
_PARITY = tuple(round(np.linalg.det(np.eye(4)[p])) for p in _PERMS)


def _align_spectra(du, dv):
    """(sign, perm, parity) minimizing max |du - sign dv[perm]| over
    sign = +-1 and every permutation, the identity with sign +1 winning
    ties; CosetMismatch when even that misses by more than 1e-6."""
    cands = dv[_PERMS]
    err = np.abs(np.concatenate((du - cands, du + cands))).max(axis=1)
    k = int(np.argmin(err))
    if err[k] > 1e-6:
        raise CosetMismatch("gamma spectra cannot be aligned")
    k, sign = (k, 1) if k < len(_PERMS) else (k - len(_PERMS), -1)
    return sign, _PERMS[k], _PARITY[k]


def match_local_factors(u, v, tol=DEFAULT_TOL):
    """One-qubit factors (a, b, c, d) with u = (a x b) v (c x d) up to phase.

    Requires u and v in the same double coset.  Both operators are taken to
    the magic basis, where the symmetric forms ut ut^T and vt vt^T share a
    spectrum; aligning their orthogonal diagonalizers produces the left
    local factor, and ct = (q_v vt)^dag (q_u ut) is real orthogonal and
    produces the right one.  When the spectra agree only up to the global
    sign of gamma, v is matched as i v, which is invisible up to phase;
    CosetMismatch when they agree with neither sign.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    for m in (u, v):
        if not nm.is_special_unitary(m, _vtol(tol) * 10.0):
            raise NotUnitary("match_local_factors expects special-unitary inputs")

    ut = nm.MAGIC_DAG @ u @ nm.MAGIC
    vt = nm.MAGIC_DAG @ v @ nm.MAGIC
    dtol = max(tol, 1e-10)
    qu, du = nm.diagonalize_symmetric_unitary(ut @ ut.T, tol=dtol)
    qv, dv = nm.diagonalize_symmetric_unitary(vt @ vt.T, tol=dtol)
    return _local_factors(_MagicForm(ut, qu, du), _MagicForm(vt, qv, dv))


class _MagicForm(NamedTuple):
    """An operator m in the magic basis, mt = E^dag m E, with the real
    orthogonal diagonalization (q, d) of the symmetric form mt mt^T."""

    mt: np.ndarray
    q: np.ndarray
    d: np.ndarray


def _magic_form(m):
    """``_MagicForm`` of an SU(4) matrix, without input checks."""
    mt = nm.MAGIC_DAG @ m @ nm.MAGIC
    q, d = nm._diagonalize_symmetric_unitary(mt @ mt.T)
    return _MagicForm(mt, q, d)


def _local_factors(fu, fv):
    """The factors (a, b, c, d) of ``match_local_factors`` from the magic
    forms of u and of v, read in closed form from the SO(4) matrices
    qu^T qv (for a x b) and ct (for c x d).  Both diagonalizers have
    det +1, so qv keeps det +1 by negating its row 0 after an odd
    permutation.  When the spectra align only with the sign of gamma(v)
    flipped, v is replaced by i v: gamma(i v) = -gamma(v) has the same
    diagonalizer, and the factor i goes into ct, whose real part is then
    Im(ct)."""
    sign, perm, parity = _align_spectra(fu.d, fv.d)
    qv = fv.q[perm]
    if parity < 0:
        qv[0] = -qv[0]
    ct = (qv @ fv.mt).conj().T @ (fu.q @ fu.mt)
    a, b = _so4_factors(fu.q.T @ qv)
    c, d = _so4_factors(ct.real if sign > 0 else ct.imag)
    return a, b, c, d


def _target(m, tol):
    """The magic form of the SU(4) operator m that every candidate core is
    matched against.  Its unitarity check is the one input check kept here:
    its tolerance can be tighter than the caller's."""
    nm._require_unitary(m, max(tol, 1e-10))
    return _magic_form(m)


def _euler_gates(m2, qubit, outer, inner):
    """Rotation gates realizing a one-qubit matrix, zero angles dropped."""
    theta, phi, psi, _ = _euler_angles(m2, outer, inner)
    gates = []
    for axis, ang in ((outer, psi), (inner, phi), (outer, theta)):
        ang = wrap_angle(ang)
        if abs(ang) > _ZERO_ANGLE:
            gates.append(Rotation(axis, qubit, ang))
    return gates


def _is_identity_1q(m2):
    off = abs(m2[0, 1]) + abs(m2[1, 0])
    return off <= 1e-10 and abs(m2[0, 0] - m2[1, 1]) <= 1e-10


def _local_gates(m2, qubit, lib):
    """The gates of one factor from ``_local_factors``, which is in SU(2) by
    construction."""
    if lib is GateLibrary.BASIC:
        return [] if _is_identity_1q(m2) else [Generic1Q._trusted(qubit, m2)]
    if lib is GateLibrary.CXZ:
        return _euler_gates(m2, qubit, Axis.Z, Axis.X)
    return _euler_gates(m2, qubit, Axis.Z, Axis.Y)


def _strip_zero_rotations(gates):
    out = []
    for g in gates:
        if isinstance(g, Rotation):
            ang = wrap_angle(g.angle)
            if abs(ang) <= _ZERO_ANGLE:
                continue
            g = Rotation(g.axis, g.qubit, ang)
        out.append(g)
    return out


def _synthesize_cyz_like(target, lib, order):
    """CYZ and BASIC share the same core; only the local-layer encoding differs."""
    core = cyz_core_circuit(_cyz_params(target.d, order))
    core_norm, _ = _su4_normalize(simulate(core))
    a, b, c, d = _local_factors(target, _magic_form(core_norm))
    gates = []
    gates += _local_gates(c, 0, lib)
    gates += _local_gates(d, 1, lib)
    gates += _strip_zero_rotations(core.gates)
    gates += _local_gates(a, 0, lib)
    gates += _local_gates(b, 1, lib)
    return Circuit(tuple(gates)), "%d%d%d" % order


_CXY_CONJ = nm.kron(nm.HADAMARD, nm.HADAMARD)


def _map_cxy_gate(g):
    if isinstance(g, Rotation):
        if g.axis is Axis.Z:
            return Rotation(Axis.X, g.qubit, g.angle)
        if g.axis is Axis.Y:
            return Rotation(Axis.Y, g.qubit, -g.angle)
        raise VerificationFailed("unexpected axis in CYZ intermediate circuit")
    if isinstance(g, CNOT):
        return CNOT(g.target, g.control)
    raise VerificationFailed("unexpected gate in CYZ intermediate circuit")


def _synthesize_cxy(target, order):
    """``target`` is prepared from (H x H) u (H x H)."""
    circuit, tag = _synthesize_cyz_like(target, GateLibrary.CYZ, order)
    return Circuit(tuple(_map_cxy_gate(g) for g in circuit.gates)), tag


def _cxz_state(u_norm, tol):
    """The per-input state of the CXZ construction: its core parameters and
    the ``_target`` of M = su4(u C[0->1] Delta(psi)); no variant changes either."""
    u_mat, _ = _su4_normalize(u_norm @ nm.CNOT01)
    psi, m_mat = _cxz_shift(u_mat)
    target = _target(m_mat, tol)
    return _cxz_params(psi, target.d), target


def _synthesize_cxz(state, variant):
    """variant = (conjugate_labeling, swap_pair_roles, swap_core_wires)."""
    params, target = state
    neg, swap_rs, swap_wires = variant
    theta, phi = params.theta, params.phi
    if swap_rs:
        phi = -phi
    if neg:
        theta, phi = -theta, -phi

    if swap_wires:
        mid = (Rotation(Axis.Z, 0, theta), Rotation(Axis.X, 1, phi))
    else:
        mid = (Rotation(Axis.X, 0, theta), Rotation(Axis.Z, 1, phi))
    w_core = Circuit((CNOT(0, 1),) + mid + (CNOT(0, 1),))
    w_norm, _ = _su4_normalize(simulate(w_core))
    a, b, c, d = _local_factors(target, _magic_form(w_norm))

    gates = [Rotation(Axis.Z, 1, -params.psi), CNOT(0, 1)]
    gates += _local_gates(c, 0, GateLibrary.CXZ)
    gates += _local_gates(d, 1, GateLibrary.CXZ)
    gates += _strip_zero_rotations(w_core.gates)
    gates += _local_gates(a, 0, GateLibrary.CXZ)
    gates += _local_gates(b, 1, GateLibrary.CXZ)
    tag = "rs"
    if swap_rs:
        tag = "sr"
    if neg:
        tag = "-" + tag
    if swap_wires:
        tag += ":zx"
    return Circuit(tuple(_strip_zero_rotations(gates))), tag


_CXZ_VARIANTS = tuple(
    (neg, swap_rs, swap_wires)
    for swap_wires in (False, True)
    for neg in (False, True)
    for swap_rs in (False, True)
)


def _candidate_tags(lib):
    if lib is GateLibrary.CXZ:
        return _CXZ_VARIANTS
    return EIGEN_ORDERS


def _prepare(u, lib, tol):
    """The per-input state of one call on a validated unitary ``u``: u in
    SU(4) with its magic form and its diagonalization (for CXY those of the
    H x H conjugate; for CXZ those of M, with the core parameters).  Every
    candidate reads it; none recomputes it."""
    if lib is GateLibrary.CXY:
        u_norm, _ = su4_normalize(_CXY_CONJ @ u @ _CXY_CONJ)
    else:
        u_norm, _ = _su4_normalize(u)
    if lib is GateLibrary.CXZ:
        return _cxz_state(u_norm, tol)
    return _target(u_norm, tol)


def _synthesize_one(state, lib, candidate):
    if lib is GateLibrary.CXZ:
        return _synthesize_cxz(state, candidate)
    if lib is GateLibrary.CXY:
        return _synthesize_cxy(state, candidate)
    return _synthesize_cyz_like(state, lib, candidate)


def _result_for(u, circuit, tag, tol):
    residual = nm.phase_distance(simulate(circuit), u)
    if residual > tol:
        raise VerificationFailed("residual %.3g exceeds tol %.3g" % (residual, tol))
    return SynthesisResult(
        circuit=circuit,
        residual=residual,
        cnot_count=circuit.cnot_count,
        one_param_count=circuit.one_param_count,
        basic_count=circuit.basic_count,
        eigen_order=tag,
    )


def synthesize(u, lib=GateLibrary.CYZ, tol=DEFAULT_TOL):
    """Decompose a two-qubit unitary over the given library.

    Emits the universal 3-CNOT topology unconditionally and verifies the
    simulated circuit against ``u`` up to global phase.  Candidate
    eigenvalue orderings are tried in deterministic order; the first
    verified circuit wins.
    """
    u = np.asarray(u, dtype=np.complex128)
    if not nm.is_unitary(u, 1e-8):
        raise NotUnitary("synthesize expects a unitary matrix")
    lib = GateLibrary(lib)
    state = _prepare(u, lib, tol)
    last_error = None
    for candidate in _candidate_tags(lib):
        try:
            circuit, tag = _synthesize_one(state, lib, candidate)
            return _result_for(u, circuit, tag, tol)
        except (VerificationFailed, CosetMismatch) as exc:
            last_error = exc
    raise VerificationFailed(
        "no candidate ordering produced a verified circuit: %s" % last_error
    )


def _dedupe_key(g):
    if isinstance(g, Rotation):
        return (g.axis.value, g.qubit, round(g.angle, 9))
    if isinstance(g, Generic1Q):
        return ("u", g.qubit, tuple(np.round(g.matrix, 9).ravel()))
    return ("cnot", g.control, g.target)


def enumerate_circuits(u, lib=GateLibrary.CYZ, limit=8, tol=DEFAULT_TOL):
    """Distinct verified circuits from the eigenvalue-ordering freedom."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    u = np.asarray(u, dtype=np.complex128)
    if not nm.is_unitary(u, 1e-8):
        raise NotUnitary("enumerate_circuits expects a unitary matrix")
    lib = GateLibrary(lib)
    state = _prepare(u, lib, tol)
    results = []
    seen = set()
    for candidate in _candidate_tags(lib):
        try:
            circuit, tag = _synthesize_one(state, lib, candidate)
            result = _result_for(u, circuit, tag, tol)
        except (VerificationFailed, CosetMismatch):
            continue
        key = tuple(_dedupe_key(g) for g in circuit.gates)
        if key in seen:
            continue
        seen.add(key)
        results.append(result)
        if len(results) >= limit:
            break
    if not results:
        raise VerificationFailed("no verified circuit found")
    return results
