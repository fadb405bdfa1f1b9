"""Tests of the benchmark's own reference and of its declared metrics.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


# Stand-ins with the public fields of q2synth's gates: the reference reads
# gates by class name and fields only.
@dataclass
class Rotation:
    axis: Axis
    qubit: int
    angle: float


@dataclass
class CNOT:
    control: int
    target: int


@dataclass
class Generic1Q:
    qubit: int
    matrix: np.ndarray


@dataclass
class Swap:
    pass


def ket(bits):
    v = np.zeros(4, dtype=np.complex128)
    v[int(bits, 2)] = 1.0
    return v


def expm_hermitian(h):
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("axis", "xyz")
def test_rotation_is_exponential_of_pauli(axis):
    for t in (0.0, 0.3, -2.1, math.pi):
        assert np.allclose(ref.rotation(axis, t), expm_hermitian(-t / 2.0 * ref.PAULI[axis]))


def test_half_turns_are_paulis_up_to_phase():
    for axis in "xyz":
        assert np.allclose(ref.rotation(axis, math.pi), -1j * ref.PAULI[axis])


def test_qubit_zero_is_left_factor():
    flip0 = ref.gate_matrix(Rotation(Axis.X, 0, math.pi))
    assert np.allclose(flip0 @ ket("00"), -1j * ket("10"))
    flip1 = ref.gate_matrix(Rotation(Axis.X, 1, math.pi))
    assert np.allclose(flip1 @ ket("00"), -1j * ket("01"))


def test_cnot_truth_tables():
    c01 = ref.gate_matrix(CNOT(0, 1))
    c10 = ref.gate_matrix(CNOT(1, 0))
    for src, dst in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        assert np.allclose(c01 @ ket(src), ket(dst))
    for src, dst in (("00", "00"), ("01", "11"), ("10", "10"), ("11", "01")):
        assert np.allclose(c10 @ ket(src), ket(dst))


def test_swap_exchanges_wires():
    rng = np.random.default_rng(0)
    a, b = ref.haar(2, rng), ref.haar(2, rng)
    s = ref.gate_matrix(Swap())
    assert np.allclose(s @ np.kron(a, b) @ s, np.kron(b, a))
    assert np.allclose(s @ ref.CNOT_01 @ s, ref.CNOT_10)
    assert np.allclose(ref.CNOT_01 @ ref.CNOT_10 @ ref.CNOT_01, s)


def test_generic_gate_and_product_order():
    rng = np.random.default_rng(1)
    m = ref.haar(2, rng)
    gates = [Generic1Q(1, m), CNOT(0, 1), Rotation(Axis.Z, 0, 0.4)]
    expected = np.kron(ref.rotation("z", 0.4), ref.I2) @ ref.CNOT_01 @ np.kron(ref.I2, m)
    assert np.allclose(ref.product(gates), expected)
    assert ref.count_cnots(gates) == 1
    assert ref.basic_count(gates + [Swap()]) == 6


def test_unknown_gate_is_rejected():
    with pytest.raises(ValueError):
        ref.gate_matrix(object())


def test_phase_distance():
    rng = np.random.default_rng(2)
    u = ref.haar(4, rng)
    assert ref.phase_distance(np.exp(0.7j) * u, u) < 1e-14
    assert ref.phase_distance(u, ref.haar(4, rng)) > 1e-3
    v = u.copy()
    v[0, 0] += 1e-6
    assert 0.5e-6 < ref.phase_distance(u, v) < 2e-6


def test_haar_is_unitary_and_seeded():
    u = ref.haar(4, np.random.default_rng(3))
    assert np.allclose(u.conj().T @ u, np.eye(4))
    assert np.array_equal(u, ref.haar(4, np.random.default_rng(3)))


def test_canonical_gate_matches_exponential():
    for a, b, c in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.7), (math.pi / 4, math.pi / 4, 0.1)):
        h = a * ref.XX + b * ref.YY + c * ref.ZZ
        assert np.allclose(ref.canonical(a, b, c), expm_hermitian(h))


def _gamma_trace(u):
    syy = np.kron(ref.PAULI["y"], ref.PAULI["y"])
    v = u / np.linalg.det(u) ** 0.25
    return np.trace(v @ syy @ v.T @ syy)


@pytest.mark.parametrize(
    "point, cost",
    [
        ((0.0, 0.0, 0.0), 0),
        ((math.pi / 2, 0.0, 0.0), 0),
        ((math.pi / 4, 0.0, 0.0), 1),
        ((0.0, math.pi / 4, 0.0), 1),
        ((math.pi / 4, math.pi / 2, 0.0), 1),
        ((math.pi / 4, math.pi / 4, 0.0), 2),
        ((0.62, 0.27, 0.0), 2),
        ((0.3, 0.0, 0.0), 2),
        ((math.pi / 4, math.pi / 4, math.pi / 4), 3),
        ((0.58, 0.58, 0.31), 3),
    ],
)
def test_expected_cost(point, cost):
    assert ref.expected_cost(*point) == cost
    # The class-2 test is Im tr gamma = 0; check it against gamma itself.
    im = abs(_gamma_trace(ref.canonical(*point)).imag)
    assert (im < 1e-9) == (cost < 3)


def test_separation_examples():
    first = [CNOT(0, 1), Rotation(Axis.X, 0, 0.8), CNOT(1, 0)]
    second = [CNOT(1, 0), Rotation(Axis.X, 1, 0.8), CNOT(1, 0)]
    third = [
        CNOT(0, 1),
        Rotation(Axis.X, 0, 0.7),
        CNOT(0, 1),
        Rotation(Axis.Z, 1, 0.6),
        CNOT(0, 1),
        Rotation(Axis.X, 0, 0.5),
        CNOT(0, 1),
    ]
    assert [ref.separated(c) for c in (first, second, third)] == [False, True, False]
    assert ref.separated([CNOT(0, 1), CNOT(0, 1)]) is False
    with pytest.raises(ValueError):
        ref.separated([Rotation(Axis.Y, 0, 0.1)])


def _q2synth():
    sys.path.insert(0, str(ROOT / "src"))
    return pytest.importorskip("q2synth")


def test_reference_agrees_with_package_conventions():
    q = _q2synth()
    rng = np.random.default_rng(4)
    gates = [q.CNOT(0, 1), q.CNOT(1, 0), q.Swap(), q.Generic1Q(0, ref.haar(2, rng))]
    gates += [q.Rotation(axis, w, 0.9) for axis in q.Axis for w in (0, 1)]
    for g in gates:
        assert np.allclose(ref.gate_matrix(g), q.gate_matrix(g))


def test_reference_separation_agrees_with_package():
    q = _q2synth()
    import workloads

    wl = workloads.ReduceLong(q, 5)
    for _ in range(40):
        c = wl._separation_circuit(workloads.SEPARATION_LENGTH)
        assert ref.separated(c.gates) == q.effectively_separated(c)


def test_benchmark_json_declares_what_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_skips_missing_layers_and_restores_package(monkeypatch):
    q = _q2synth()
    import spans

    monkeypatch.setattr(spans, "TIMED", spans.TIMED + (("gone.fn", "q2synth.gone", "fn", None),))
    original = q.synthesis.simulate
    tracer = spans.Tracer()
    assert "gone.fn" not in tracer.layers and "circuit.simulate" in tracer.layers
    u = ref.haar(4, np.random.default_rng(6))
    tracer.install()
    assert q.synthesis.simulate is not original
    tracer.begin(0)
    q.synthesize(u, "cyz")
    tracer.end()
    tracer.uninstall()
    assert q.synthesis.simulate is original

    a = tracer.arrays()
    roots = a["parent"] < 0
    assert a["name"][roots].tolist() == [tracer.names.index("synthesis.synthesize")]
    # Self times telescope: together they make up the root span exactly.
    assert a["self"].sum() == pytest.approx(a["dur"][roots].sum(), rel=1e-9)
    assert (a["self"] >= -1e-9).all()


def test_screen_counts_refused_calls_and_drops_them_from_the_pool():
    import run
    import workloads

    class Refused(Exception):
        pass

    def api(x):
        if x == "refuse":
            raise Refused()
        return x

    def call(x):
        return workloads.Call("synth_cyz", "api", (x,), lambda out, counters: None if out == "ok" else "wrong")

    q = SimpleNamespace(Q2SynthError=Refused, api=api)
    wl = SimpleNamespace(pool=[[call("ok"), call("refuse")], [call("refuse")], [call("bad")]])
    stats = run.screen(wl, q)
    assert (stats.attempted, stats.refused, stats.wrong) == (4, 2, 1)
    # Wrong answers stay in the pool, so the timed loop fails them again.
    assert [[c.args[0] for c in calls] for calls in wl.pool] == [["ok"], ["bad"]]
    assert run.fail_ratios(stats) == (0.75, 0.75)


def test_weyl_pool_is_seeded_and_cycled():
    q = _q2synth()
    import workloads

    a, b = workloads.WeylDegenerate(q, 3), workloads.WeylDegenerate(q, 3)
    assert len(a.pool) == a.POOL_ROUNDS * len(a.corpus)
    assert all(np.array_equal(x.args[0], y.args[0]) for x, y in zip(a.pool[5], b.pool[5]))
    first = a.next_request()
    for _ in range(len(a.pool) - 1):
        a.next_request()
    assert a.next_request() is first
