"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with ``pytest -rA``
or ``-s``); the ``pytest -v`` status of each ``test_criterion_*`` function is
the authoritative pass/fail verdict.  Tolerances are pinned here and must
not be loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from q2synth import numerics as nm
from q2synth.circuit import (
    CNOT,
    Axis,
    Circuit,
    Generic1Q,
    Rotation,
    Swap,
    parse_circuit,
    rotation_matrix2,
    simulate,
    su4_normalize,
)
from q2synth.cli import QFT2, main
from q2synth.errors import NoMatch
from q2synth.invariants import cnot_cost, cnot_lower_bound, gamma
from q2synth.rewrite import RULES, apply_rule, effectively_separated, reduce
from q2synth.synthesis import GateLibrary, match_local_factors, synthesize

from draws import su2

SEED = 1729
N_SYNTH = 1000
N_PROPS = 500


def _report(num, ok, text):
    print("ACCEPTANCE #%d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "acceptance criterion %d failed: %s" % (num, text)


@pytest.fixture(scope="module")
def haar_samples():
    rng = np.random.default_rng(SEED)
    return [nm.haar_unitary(4, rng) for _ in range(N_SYNTH)]


def test_criterion_1_rotation_library_synthesis(haar_samples):
    t0 = time.monotonic()
    worst = 0.0
    counts_ok = True
    for lib in (GateLibrary.CYZ, GateLibrary.CXY, GateLibrary.CXZ):
        for u in haar_samples:
            result = synthesize(u, lib)
            worst = max(worst, result.residual)
            counts_ok = counts_ok and result.cnot_count == 3 and result.one_param_count <= 15
    elapsed = time.monotonic() - t0
    ok = counts_ok and worst <= 1e-8 and elapsed <= 60.0
    _report(
        1,
        ok,
        "CYZ/CXY/CXZ on %d Haar samples each: 3 CNOTs, <=15 rotations, "
        "worst residual %.2e, %.1fs" % (N_SYNTH, worst, elapsed),
    )


def test_criterion_2_basic_gate_synthesis(haar_samples):
    worst = 0.0
    counts_ok = True
    for u in haar_samples:
        result = synthesize(u, GateLibrary.BASIC)
        worst = max(worst, result.residual)
        counts_ok = counts_ok and result.cnot_count == 3 and result.basic_count <= 10
    ok = counts_ok and worst <= 1e-8
    _report(
        2,
        ok,
        "basic-gate library on %d Haar samples: 3 CNOTs, <=10 basic gates, "
        "worst residual %.2e" % (N_SYNTH, worst),
    )


def test_criterion_3_qft2_regression(capsys):
    code = main(["synth", "--gate", "qft2", "--lib", "cyz"])
    out = capsys.readouterr().out
    circuit = parse_circuit(out)
    residual = nm.phase_distance(simulate(circuit), QFT2)
    synth_ok = code == 0 and circuit.cnot_count == 3 and residual <= 1e-10

    # reference realization; merging adjacent one-qubit gates reproduces the
    # claimed 3 one-qubit + 3 CNOT form
    sy = lambda s: Rotation(Axis.Y, 0, s * math.pi / 2)
    tz = lambda k: Rotation(Axis.Z, 0, k * math.pi / 4)
    ref = Circuit((sy(-1), tz(5), CNOT(1, 0), tz(-1), CNOT(0, 1), CNOT(1, 0), tz(5), sy(1)))
    merged = ref
    changed = True
    while changed:
        changed = False
        for pos in range(len(merged.gates)):
            try:
                merged = apply_rule(merged, "MergeRotations", pos)
                changed = True
                break
            except NoMatch:
                pass
    one_qubit = sum(1 for g in merged.gates if not isinstance(g, CNOT))
    cnots = sum(1 for g in merged.gates if isinstance(g, CNOT))
    merge_ok = (
        (one_qubit, cnots) == (3, 3)
        and nm.phase_distance(simulate(merged), QFT2) <= 1e-10
    )
    ok = synth_ok and merge_ok
    with capsys.disabled():
        _report(
            3,
            ok,
            "qft2 synthesis: 3 CNOTs at residual %.2e; merged reference has "
            "%d one-qubit + %d CNOT gates" % (residual, one_qubit, cnots),
        )


def test_criterion_4_invariant_properties():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    worst_chi = 0.0
    eye = np.eye(4)
    sy = nm.SIGMA_Y

    def gamma1(a):
        return a @ sy @ a.T @ sy

    for _ in range(N_PROPS):
        u = nm.haar_unitary(4, rng)
        v = nm.haar_unitary(4, rng)
        a2, b2 = nm.haar_unitary(2, rng), nm.haar_unitary(2, rng)
        # (1) identity
        worst = max(worst, float(np.max(np.abs(gamma(eye) - eye))))
        # (2) product rule
        rhs = u @ gamma(v) @ gamma(u.T).T @ np.linalg.inv(u)
        worst = max(worst, float(np.max(np.abs(gamma(u @ v) - rhs))))
        # (3) tensor rule
        worst = max(
            worst,
            float(np.max(np.abs(gamma(nm.kron(a2, b2)) - nm.kron(gamma1(a2), gamma1(b2))))),
        )
        # (4) one-qubit products give a scalar (product of factor dets)
        scalar = np.linalg.det(a2) * np.linalg.det(b2)
        worst = max(worst, float(np.max(np.abs(gamma(nm.kron(a2, b2)) - scalar * eye))))
        # (5) left-coset invariance
        loc = nm.kron(su2(rng), su2(rng))
        worst = max(worst, float(np.max(np.abs(gamma(u @ loc) - gamma(u)))))
        # (6) chi invariance on double cosets
        u4, _ = su4_normalize(u)
        w = nm.kron(su2(rng), su2(rng)) @ u4 @ nm.kron(su2(rng), su2(rng))
        chi_u = nm.charpoly4(gamma(u4)).as_array()
        chi_w = nm.charpoly4(gamma(w)).as_array()
        worst_chi = max(worst_chi, float(np.max(np.abs(chi_u - chi_w))))
    ok = worst <= 1e-10 and worst_chi <= 1e-9
    _report(
        4,
        ok,
        "gamma properties (1)-(6) on %d instances: worst %.2e; chi under "
        "local pre/post: worst %.2e" % (N_PROPS, worst, worst_chi),
    )


def test_criterion_5_constructive_matching():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(N_PROPS):
        v, _ = su4_normalize(nm.haar_unitary(4, rng))
        a, b, c, d = (su2(rng) for _ in range(4))
        u = nm.kron(a, b) @ v @ nm.kron(c, d)
        fa, fb, fc, fd = match_local_factors(u, v)
        recon = nm.kron(fa, fb) @ v @ nm.kron(fc, fd)
        worst = max(worst, nm.phase_distance(recon, u))
    ok = worst <= 1e-8
    _report(5, ok, "local-factor matching on %d constructions: worst residual %.2e" % (N_PROPS, worst))


def test_criterion_6_cnot_cost_classifier(haar_samples):
    rng = np.random.default_rng(SEED + 6)
    ok = cnot_cost(np.eye(4)) == 0
    for _ in range(50):
        ok = ok and cnot_cost(nm.kron(su2(rng), su2(rng))) == 0
    ok = ok and cnot_cost(nm.CNOT01) == 1 and cnot_cost(nm.CZ_MAT) == 1
    for _ in range(100):
        theta, phi = rng.uniform(0.2, 1.3, size=2)
        core = (
            nm.CNOT01
            @ nm.kron(rotation_matrix2(Axis.X, theta), rotation_matrix2(Axis.Z, phi))
            @ nm.CNOT01
        )
        ok = ok and cnot_cost(core) == 2
    ok = ok and cnot_cost(nm.SWAP_MAT) == 3
    hits = sum(cnot_cost(u) == 3 for u in haar_samples)
    ok = ok and hits >= 999
    _report(6, ok, "cost classes 0/1/2/3 verified; %d/%d Haar samples cost 3" % (hits, N_SYNTH))


def test_criterion_7_lower_bound_formula():
    ok = cnot_lower_bound(2) == 3 and cnot_lower_bound(3) == 14
    for n in range(1, 9):
        exact = Fraction(4**n - 3 * n - 1, 4)
        ceil = -((-exact.numerator) // exact.denominator)
        ok = ok and cnot_lower_bound(n) == ceil
    _report(7, ok, "lower bound matches exact rational ceiling for n <= 8 (3 at n=2, 14 at n=3)")


def test_criterion_8_rewrite_soundness():
    worst_rule = 0.0
    for rule in RULES.values():
        for window in rule.samples:
            _, replacement = rule.match(window, 0)
            worst_rule = max(
                worst_rule,
                nm.phase_distance(
                    simulate(Circuit(replacement)), simulate(Circuit(tuple(window)))
                ),
            )

    rng = np.random.default_rng(SEED + 8)
    worst_reduce = 0.0
    axes = list(Axis)
    for _ in range(500):
        gates = []
        for _ in range(int(rng.integers(1, 31))):
            k = int(rng.integers(0, 4))
            if k == 0:
                c = int(rng.integers(0, 2))
                gates.append(CNOT(c, 1 - c))
            elif k == 1:
                gates.append(Swap())
            elif k == 2:
                gates.append(
                    Rotation(axes[int(rng.integers(0, 3))], int(rng.integers(0, 2)), float(rng.uniform(-3, 3)))
                )
            else:
                gates.append(Generic1Q(int(rng.integers(0, 2)), nm.haar_unitary(2, rng)))
        circuit = Circuit(tuple(gates))
        reduced, _ = reduce(circuit)
        worst_reduce = max(worst_reduce, nm.phase_distance(simulate(reduced), simulate(circuit)))
    ok = worst_rule <= 1e-12 and worst_reduce <= 1e-10
    _report(
        8,
        ok,
        "rule samples worst %.2e (<=1e-12); reduce on 500 random circuits "
        "worst %.2e (<=1e-10)" % (worst_rule, worst_reduce),
    )


def test_criterion_9_separation_examples():
    first = Circuit((CNOT(0, 1), Rotation(Axis.X, 0, 0.8), CNOT(1, 0)))
    second = Circuit((CNOT(1, 0), Rotation(Axis.X, 1, 0.8), CNOT(1, 0)))
    third = Circuit(
        (
            CNOT(0, 1),
            Rotation(Axis.X, 0, 0.7),
            CNOT(0, 1),
            Rotation(Axis.Z, 1, 0.6),
            CNOT(0, 1),
            Rotation(Axis.X, 0, 0.5),
            CNOT(0, 1),
        )
    )
    results = tuple(effectively_separated(c, 8) for c in (first, second, third))
    ok = results == (False, True, False)
    _report(9, ok, "separation checker returns %s at depth 8 (expected (False, True, False))" % (results,))
