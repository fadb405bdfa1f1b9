"""Command-line front end.

Subcommands: ``synth`` (decompose a unitary over a gate library), ``cost``
and ``invariants`` (local-equivalence classification), ``reduce`` and
``separated`` (circuit rewriting), and ``selftest`` (seeded property suite).

Exit codes are stable: 0 success, 1 selftest failure, 2 parse/validation
error, 3 synthesis verification failure.  Circuit output lines are either
gates or ``#`` comments, so saved output re-parses as a circuit file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import numerics as nm
from .circuit import CNOT, Axis, Circuit, Generic1Q, Rotation, Swap, circuit_to_text, parse_circuit
from .circuit import rotation_matrix2, simulate, su4_normalize, to_qasm
from .errors import CircuitParseError, Q2SynthError, VerificationFailed
from .invariants import cnot_cost, gamma, invariant_data, same_double_coset
from .rewrite import RULES, effectively_separated, replay, rule_residual
from .rewrite import reduce as reduce_circuit
from .synthesis import GateLibrary, enumerate_circuits, synthesize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3

#: Two-qubit discrete Fourier transform, F[j,k] = i^(j*k) / 2.
QFT2 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ],
    dtype=np.complex128,
)

NAMED_GATES = ("identity", "cnot", "cz", "swap", "qft2", "magic", "random")


def named_gate(name, seed=0):
    """Resolve a named input matrix; ``random`` draws Haar from the seed."""
    table = {
        "identity": nm.I4,
        "cnot": nm.CNOT01,
        "cz": nm.CZ_MAT,
        "swap": nm.SWAP_MAT,
        "qft2": QFT2,
        "magic": nm.MAGIC,
    }
    if name in table:
        return table[name].copy()
    if name == "random":
        return nm.haar_unitary(4, np.random.default_rng(seed))
    raise CircuitParseError("unknown gate name %r" % name)


def parse_matrix_text(text):
    """Parse the 4-line matrix format: 8 floats per line, re/im pairs."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise CircuitParseError(
                "line %d: expected 8 numbers (re im pairs), got %d" % (lineno, len(parts))
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CircuitParseError("line %d: %s" % (lineno, exc)) from None
        rows.append([complex(vals[2 * k], vals[2 * k + 1]) for k in range(4)])
    if len(rows) != 4:
        raise CircuitParseError("expected 4 matrix rows, got %d" % len(rows))
    return nm.require_unitary(rows, "parse_matrix_text")


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_input(args):
    if getattr(args, "gate", None):
        return named_gate(args.gate, getattr(args, "seed", 0) or 0)
    return parse_matrix_text(_read_text(args.matrix))


def _fmt_complex(z):
    return "%.12g%+.12gj" % (z.real, z.imag)


def _print_result(result, lib, qasm):
    print("# library: %s" % lib.value)
    print("# eigen-order: %s" % result.eigen_order)
    print("# residual: %.6e" % result.residual)
    print(
        "# counts: cnot=%d one-param=%d basic=%d"
        % (result.cnot_count, result.one_param_count, result.basic_count)
    )
    if qasm:
        print(to_qasm(result.circuit))
    else:
        print(circuit_to_text(result.circuit))


def cmd_synth(args):
    tol = args.verify_tol
    u = _resolve_input(args)
    lib = GateLibrary(args.lib)
    # Everything is computed before the first line is printed, so a refused
    # command writes nothing to stdout.
    cost = cnot_cost(u)
    if args.enumerate is not None:
        results = enumerate_circuits(u, lib, limit=args.enumerate, tol=tol)
    else:
        results = [synthesize(u, lib, tol=tol)]
    print("# input cnot_cost: %d" % cost)
    for k, result in enumerate(results, start=1):
        if args.enumerate is not None:
            print("# --- candidate %d of %d ---" % (k, len(results)))
        _print_result(result, lib, args.qasm)
    return EXIT_OK


def cmd_cost(args):
    u = _resolve_input(args)
    print(cnot_cost(u))
    return EXIT_OK


def cmd_invariants(args):
    u, _ = su4_normalize(_resolve_input(args))
    data = invariant_data(u)
    print("gamma spectrum: %s" % "  ".join(_fmt_complex(z) for z in data.spectrum))
    print("chi coefficients: %s" % "  ".join(_fmt_complex(z) for z in data.chi.coeffs))
    print("trace gamma: %s" % _fmt_complex(data.trace))
    print("im trace gamma: %.6e" % data.trace.imag)
    print("cnot_cost: %d" % cnot_cost(u))
    return EXIT_OK


def cmd_reduce(args):
    circuit = parse_circuit(_read_text(args.circuit))
    reduced, trace = reduce_circuit(circuit)
    print("# gates: %d -> %d" % (trace.initial_gate_count, trace.final_gate_count))
    for rule_id, pos in trace.steps:
        print("# step: %s @ %d" % (rule_id, pos))
    print(circuit_to_text(reduced))
    return EXIT_OK


def cmd_separated(args):
    circuit = parse_circuit(_read_text(args.circuit))
    sep = effectively_separated(circuit, depth_limit=args.depth)
    print("true (certified to depth %d)" % args.depth if sep else "false")
    return EXIT_OK


def _selftest_gamma(rng, trials):
    worst = 0.0
    sy = nm.SIGMA_Y

    def gamma1(a):
        return a @ sy @ a.T @ sy

    for _ in range(trials):
        a2 = nm.haar_unitary(2, rng)
        b2 = nm.haar_unitary(2, rng)
        u = nm.haar_unitary(4, rng)
        v = nm.haar_unitary(4, rng)
        worst = max(worst, float(np.max(np.abs(gamma(nm.I4) - nm.I4))))
        lhs = gamma(u @ v)
        rhs = u @ gamma(v) @ gamma(u.T).T @ np.linalg.inv(u)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        worst = max(
            worst,
            float(np.max(np.abs(gamma(nm.kron(a2, b2)) - nm.kron(gamma1(a2), gamma1(b2))))),
        )
        # for a product of one-qubit factors, gamma is the product of the
        # factor determinants times I (equals det only for special factors)
        det = np.linalg.det(a2) * np.linalg.det(b2)
        worst = max(worst, float(np.max(np.abs(gamma(nm.kron(a2, b2)) - det * nm.I4))))
        a = a2 / np.sqrt(np.linalg.det(a2))
        b = b2 / np.sqrt(np.linalg.det(b2))
        worst = max(worst, float(np.max(np.abs(gamma(u @ nm.kron(a, b)) - gamma(u)))))
        c = nm.haar_unitary(2, rng)
        d = nm.haar_unitary(2, rng)
        c = c / np.sqrt(np.linalg.det(c))
        d = d / np.sqrt(np.linalg.det(d))
        u4, _ = su4_normalize(u)
        w = nm.kron(a, b) @ u4 @ nm.kron(c, d)
        chi_u = nm.charpoly4(gamma(u4)).as_array()
        chi_w = nm.charpoly4(gamma(w)).as_array()
        worst = max(worst, float(np.max(np.abs(chi_u - chi_w))))
        if not same_double_coset(u4, w):
            worst = max(worst, 1.0)
    return worst, worst <= nm.ROUNDING_TOL


def _selftest_synthesis(rng, trials, lib):
    worst = 0.0
    ok = True
    for _ in range(trials):
        u = nm.haar_unitary(4, rng)
        result = synthesize(u, lib)
        worst = max(worst, result.residual)
        if result.cnot_count != 3:
            ok = False
        if lib is GateLibrary.BASIC:
            ok = ok and result.basic_count <= 10
        else:
            ok = ok and result.one_param_count <= 15
    return worst, ok and worst <= nm.DEFAULT_TOL


def _selftest_reduce(rng, trials):
    """The worst phase distance of a reduced circuit from its input, and
    whether every one is within ROUNDING_TOL and replays from its trace."""
    worst, replayed = 0.0, True
    axes = list(Axis)
    for _ in range(trials):
        gates = []
        for _ in range(int(rng.integers(1, 30))):
            k = int(rng.integers(0, 6))
            wire = int(rng.integers(0, 2))
            if k < 2:
                gates.append(CNOT(wire, 1 - wire))
            elif k == 2:
                gates.append(Swap())
            elif k == 3:
                angle = float(rng.uniform(-3, 3))
                gates.append(Rotation(axes[int(rng.integers(0, 3))], wire, angle))
            else:
                # A Haar gate, an exact sigma_x or sigma_z, or a quarter
                # turn, at a random global phase: the commutations of a
                # Generic1Q and the one-qubit merges all have work.
                j = int(rng.integers(0, 3))
                if j == 0:
                    m = nm.haar_unitary(2, rng)
                elif j == 1:
                    m = nm.SIGMA_X if rng.random() < 0.5 else nm.SIGMA_Z
                else:
                    quarter = np.pi / 2.0 if rng.random() < 0.5 else -np.pi / 2.0
                    m = rotation_matrix2(axes[int(rng.integers(0, 3))], quarter)
                gates.append(Generic1Q(wire, np.exp(1j * rng.uniform(-np.pi, np.pi)) * m))
        circuit = Circuit(tuple(gates))
        reduced, trace = reduce_circuit(circuit)
        worst = max(worst, nm.phase_distance(simulate(reduced), simulate(circuit)))
        replayed = replayed and replay(circuit, trace).gates == reduced.gates
    return worst, worst <= nm.ROUNDING_TOL and replayed


def cmd_selftest(args):
    if args.trials < 1:
        raise CircuitParseError("trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst, ok = _selftest_gamma(rng, args.trials)
    rows.append(("gamma-properties", args.trials, worst, ok))
    for lib in GateLibrary:
        worst, ok = _selftest_synthesis(rng, args.trials, lib)
        rows.append(("synthesis-%s" % lib.value, args.trials, worst, ok))
    worst = rule_residual()
    samples = sum(len(r.samples) for r in RULES.values())
    rows.append(("rewrite-rules", samples, worst, worst <= nm.ZERO_TOL))
    worst, ok = _selftest_reduce(rng, args.trials)
    rows.append(("reduce-semantics", args.trials, worst, ok))

    print("%-22s %8s %12s %s" % ("check", "trials", "worst", "status"))
    failed = False
    for name, trials, worst, ok in rows:
        print("%-22s %8d %12.3e %s" % (name, trials, worst, "pass" if ok else "FAIL"))
        failed = failed or not ok
    return EXIT_FAIL if failed else EXIT_OK


def _add_input_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gate", choices=NAMED_GATES, help="named input matrix")
    group.add_argument("--matrix", help="path to a matrix file ('-' for stdin)")
    p.add_argument("--seed", type=int, default=0, help="seed for --gate random")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="q2synth",
        description="Minimal two-qubit circuit synthesis, classification, and rewriting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="decompose a two-qubit unitary")
    _add_input_args(p)
    p.add_argument("--lib", choices=[g.value for g in GateLibrary], default="cyz")
    p.add_argument("--qasm", action="store_true", help="emit OpenQASM 2.0")
    p.add_argument("--enumerate", type=int, metavar="N", help="print up to N alternative circuits")
    p.add_argument("--verify-tol", type=float, default=nm.DEFAULT_TOL)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cost", help="CNOT cost class of a unitary (0-3)")
    _add_input_args(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("invariants", help="local-equivalence invariants of a unitary")
    _add_input_args(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reduce", help="reduce a circuit file with rewrite rules")
    p.add_argument("circuit", help="path to a circuit file ('-' for stdin)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("separated", help="check whether CNOTs can be made adjacent")
    p.add_argument("circuit", help="path to a circuit file ('-' for stdin)")
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_separated)

    p = sub.add_parser("selftest", help="run the seeded property suite")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (Q2SynthError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
