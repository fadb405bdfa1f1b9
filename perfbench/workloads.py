"""The three benchmark workloads.

Each workload turns a seed into an endless, reproducible stream of requests.
A request is a short list of calls into q2synth's public API, each with a
check that judges the call's output against ``reference`` (never against
q2synth itself).  q2synth receives only the generated matrices and circuits.

* ``haar-synth``: one Haar U(4) input, synthesized in all four libraries
  (order rotated per request) plus ``cnot_cost``.
* ``weyl-degenerate``: canonical gates at Weyl-chamber corners, edges and
  faces, offset by epsilon in a seeded direction, between seeded Haar local
  gates; same calls as ``haar-synth``.  The requests form a fixed pool that
  is screened once, untimed, before the timed loop replays it (see
  ``Workload.pool``).
* ``reduce-long``: ``reduce`` on random 50/100/200/400-gate circuits, plus
  ``effectively_separated`` on short CNOT/Rx/Rz circuits.
"""

import math
from dataclasses import dataclass

import numpy as np

import reference as ref

LIBS = ("cyz", "cxy", "cxz", "basic")

#: (label, epsilon) of the offsets applied to every chamber point.
EPSILONS = (
    ("eps0", 0.0),
    ("eps1e-12", 1e-12),
    ("eps1e-9", 1e-9),
    ("eps1e-6", 1e-6),
    ("eps1e-4", 1e-4),
)

Q = math.pi / 4.0

#: Weyl-chamber points (a, b, c) of can(a, b, c) = exp(i(a XX + b YY + c ZZ)).
CHAMBER_POINTS = (
    ("corner-identity", (0.0, 0.0, 0.0)),
    ("corner-cnot", (Q, 0.0, 0.0)),
    ("corner-dcnot", (Q, Q, 0.0)),
    ("corner-swap", (Q, Q, Q)),
    ("edge-identity-cnot", (0.37, 0.0, 0.0)),
    ("edge-cnot-dcnot", (Q, 0.41, 0.0)),
    ("edge-identity-dcnot", (0.29, 0.29, 0.0)),
    ("edge-identity-swap", (0.53, 0.53, 0.53)),
    ("edge-cnot-swap", (Q, 0.22, 0.22)),
    ("edge-dcnot-swap", (Q, Q, 0.61)),
    ("face-c0", (0.62, 0.27, 0.0)),
    ("face-a-quarter", (Q, 0.47, 0.19)),
    ("face-a-eq-b", (0.58, 0.58, 0.31)),
    ("face-b-eq-c", (0.66, 0.35, 0.35)),
)

#: Inputs that failed verification when this corpus was built: ``cxz`` on
#: the first two and ``cxy`` on the third, for some local gates.  They stay
#: in the corpus, with exactly these coordinates, so that fixes show up as a
#: lower failure ratio.
KNOWN_FAILURES = (
    ("known-cxz-1", (0.0, Q, 1e-9), "eps1e-9"),
    ("known-cxz-2", (Q, Q, 1e-9), "eps1e-9"),
    ("known-cxy-1", (1e-6, Q, 1e-6), "eps1e-6"),
)

REDUCE_SIZES = (50, 100, 200, 400)
SEPARATION_CIRCUITS = 8
SEPARATION_LENGTH = 10


@dataclass
class Call:
    """One call of the q2synth function named ``api``.  The name is looked
    up at call time, so wrappers installed meanwhile are seen.
    ``check(output, counters)`` returns None when the output is right, else
    the reason it is wrong."""

    kind: str
    api: str
    args: tuple
    check: object
    label: str = ""


class Workload:
    """Base: seeded generator of requests.

    ``tail_percentile`` is fixed per workload so that op_tail_us compares
    across commits.  It sits below the machine's own noise spikes and keeps
    well over ten samples beyond it at today's speed.
    """

    tail_percentile = 90.0

    #: None for a fresh stream of requests.  Otherwise the list of requests
    #: that ``next_request`` cycles through: the runner screens it once
    #: before timing, counts every call q2synth refuses with a typed error
    #: as a failure of the corpus, and drops those calls from the pool, so
    #: that the timed loop replays only calls that are answered.  Replaying
    #: is exact because q2synth is deterministic.
    pool = None

    def __init__(self, q, seed):
        self.q = q
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def next_request(self):
        if self.pool is None:
            calls = self._request(self.count)
        else:
            calls = self.pool[self.count % len(self.pool)]
        self.count += 1
        return calls

    def _synth_calls(self, u, index, label):
        k = index % len(LIBS)
        calls = []
        for lib in LIBS[k:] + LIBS[:k]:
            calls.append(Call("synth_" + lib, "synthesize", (u, lib), _check_synth(u), label))
        return calls


def _check_synth(u):
    def check(result, counters):
        gates = result.circuit.gates
        counters["circuits"] += 1
        counters["basic_count"] += ref.basic_count(gates)
        cnots = ref.count_cnots(gates)
        if cnots != 3:
            return "emitted %d CNOTs, expected 3" % cnots
        err = ref.phase_distance(ref.product(gates), u)
        if err > ref.PHASE_TOL:
            return "circuit misses the input by %.3g" % err
        return None

    return check


def _check_cost(expected, eps_label):
    def check(k, counters):
        counters["verdict.k%d" % k] += 1
        if eps_label:
            counters["verdict.%s.k%d" % (eps_label, k)] += 1
        if expected is not None and k != expected:
            return "cnot_cost %d, expected %d" % (k, expected)
        return None

    return check


class HaarSynth(Workload):
    name = "haar-synth"

    def _request(self, index):
        u = ref.haar(4, self.rng)
        calls = self._synth_calls(u, index, "haar")
        calls.append(Call("cost", "cnot_cost", (u,), _check_cost(3, None), "haar"))
        return calls


class WeylDegenerate(Workload):
    """Some of these inputs make q2synth refuse (``VerificationFailed``) for
    some local gates: 1% of the synthesize calls when this was written, at
    the identity, CNOT and SWAP corners, the identity-CNOT edge and the
    ``known-cxy-1`` point.
    A time-limited stream would fail a number of calls that depends on the
    speed of the machine, so the requests are a fixed pool of
    ``POOL_ROUNDS`` seeded draws of every corpus entry, screened before
    timing (see ``Workload.pool``); the refusals are the corpus failure
    ratio the runner prints."""

    name = "weyl-degenerate"
    # Once refused calls are screened out, 2-3% of requests (at the time of
    # writing) retry candidates after a failed verification and take 2-4x
    # the median.  p98 sits on the edge of that group and swings 25% across
    # seeds; p95 sits just below it, so it moves when retries grow more
    # frequent without swinging with the seed.
    tail_percentile = 95.0
    POOL_ROUNDS = 6

    def __init__(self, q, seed):
        super().__init__(q, seed)
        # (name, point, epsilon label, epsilon, cost class known by construction)
        self.corpus = [
            (name, point, label, eps, eps == 0.0)
            for name, point in CHAMBER_POINTS
            for label, eps in EPSILONS
        ]
        self.corpus += [(name, point, label, 0.0, False) for name, point, label in KNOWN_FAILURES]
        self.pool = [self._request(i) for i in range(self.POOL_ROUNDS * len(self.corpus))]

    def _request(self, index):
        name, point, eps_label, eps, exact = self.corpus[index % len(self.corpus)]
        a, b, c = point
        if eps:
            d = self.rng.standard_normal(3)
            a, b, c = np.asarray(point) + eps * d / np.linalg.norm(d)
        left = np.kron(ref.haar(2, self.rng), ref.haar(2, self.rng))
        right = np.kron(ref.haar(2, self.rng), ref.haar(2, self.rng))
        u = left @ ref.canonical(a, b, c) @ right
        expected = ref.expected_cost(a, b, c) if exact else None
        label = "%s/%s" % (name, eps_label)
        calls = self._synth_calls(u, index, label)
        calls.append(Call("cost", "cnot_cost", (u,), _check_cost(expected, eps_label), label))
        return calls


class ReduceLong(Workload):
    name = "reduce-long"
    # A request reduces 750 gates, so a run holds only a few dozen of them.
    tail_percentile = 75.0

    def _request(self, index):
        k = index % len(REDUCE_SIZES)
        calls = []
        for n in REDUCE_SIZES[k:] + REDUCE_SIZES[:k]:
            c = self._random_circuit(n)
            calls.append(Call("reduce_n%d" % n, "reduce", (c,), _check_reduce(c), "n%d" % n))
        for _ in range(SEPARATION_CIRCUITS):
            c = self._separation_circuit(SEPARATION_LENGTH)
            calls.append(Call("separated", "effectively_separated", (c,), _check_separated(c)))
        return calls

    def _angle(self):
        """Generic, quarter-turn or half-turn, so every matcher has work."""
        r = self.rng.random()
        if r < 0.5:
            return float(self.rng.uniform(-math.pi, math.pi))
        if r < 0.75:
            return math.pi / 2.0 if self.rng.random() < 0.5 else -math.pi / 2.0
        return math.pi

    def _random_circuit(self, n):
        q, rng = self.q, self.rng
        gates = []
        for _ in range(n):
            r = rng.random()
            wire = int(rng.integers(2))
            if r < 0.3:
                gates.append(q.CNOT(wire, 1 - wire))
            elif r < 0.4:
                gates.append(q.Swap())
            elif r < 0.85:
                gates.append(q.Generic1Q(wire, ref.haar(2, rng)))
            else:
                axis = (q.Axis.X, q.Axis.Y, q.Axis.Z)[int(rng.integers(3))]
                gates.append(q.Rotation(axis, wire, self._angle()))
        return q.Circuit(tuple(gates))

    def _separation_circuit(self, n):
        """CNOT/Rx/Rz gates with no two CNOTs adjacent to begin with."""
        q, rng = self.q, self.rng
        gates = []
        while len(gates) < n:
            wire = int(rng.integers(2))
            prev_cnot = bool(gates) and isinstance(gates[-1], q.CNOT)
            if rng.random() < 0.35 and not prev_cnot:
                gates.append(q.CNOT(wire, 1 - wire))
            else:
                axis = q.Axis.X if rng.random() < 0.5 else q.Axis.Z
                gates.append(q.Rotation(axis, wire, float(rng.uniform(-math.pi, math.pi))))
        return q.Circuit(tuple(gates))


def _check_reduce(circuit):
    def check(out, counters):
        reduced, trace = out
        n_in, n_out = len(circuit.gates), len(reduced.gates)
        counters["reduce.gates_in"] += n_in
        counters["reduce.gates_out"] += n_out
        counters["reduce.steps"] += len(trace.steps)
        for rule_id, _ in trace.steps:
            counters["rule." + rule_id] += 1
        if n_out > n_in:
            return "reduce grew the circuit from %d to %d gates" % (n_in, n_out)
        err = ref.phase_distance(ref.product(reduced.gates), ref.product(circuit.gates))
        if err > ref.PHASE_TOL:
            return "reduced circuit differs from its input by %.3g" % err
        return None

    return check


def _check_separated(circuit):
    def check(answer, counters):
        expected = ref.separated(circuit.gates)
        counters["separated.true"] += bool(answer)
        if bool(answer) != expected:
            return "effectively_separated %s, reference %s" % (answer, expected)
        return None

    return check


WORKLOADS = {w.name: w for w in (HaarSynth, WeylDegenerate, ReduceLong)}
