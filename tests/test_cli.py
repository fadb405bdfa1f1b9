import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import q2synth
from q2synth import cli
from q2synth import numerics as nm
from q2synth.circuit import Generic1Q, parse_circuit, simulate
from q2synth.cli import QFT2, main, named_gate, parse_matrix_text
from q2synth.errors import CircuitParseError, NotUnitary, Q2SynthError
from q2synth.rewrite import apply_rule

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputs:
    def test_named_gates_resolve(self):
        assert np.allclose(named_gate("identity"), np.eye(4))
        assert np.allclose(named_gate("cnot"), nm.CNOT01)
        assert np.allclose(named_gate("cz"), np.diag([1, 1, 1, -1]))
        assert np.allclose(named_gate("swap"), nm.SWAP_MAT)
        assert np.allclose(named_gate("magic"), nm.MAGIC)
        f = named_gate("qft2")
        # F[j,k] = i^(jk)/2
        for j in range(4):
            for k in range(4):
                assert f[j, k] == pytest.approx((1j) ** (j * k) / 2)

    def test_unknown_gate_name_is_a_parse_error(self):
        with pytest.raises(CircuitParseError, match="bogus"):
            named_gate("bogus")

    def test_random_gate_is_seed_deterministic(self):
        assert np.array_equal(named_gate("random", 42), named_gate("random", 42))
        assert not np.allclose(named_gate("random", 1), named_gate("random", 2))

    def test_matrix_file_round_trip(self):
        rng = np.random.default_rng(0)
        u = nm.haar_unitary(4, rng)
        text = "# a comment\n" + "\n".join(
            " ".join("%.17g %.17g" % (z.real, z.imag) for z in row) for row in u
        )
        assert np.allclose(parse_matrix_text(text), u, atol=1e-15)

    def test_matrix_file_errors(self):
        with pytest.raises(CircuitParseError):
            parse_matrix_text("1 2 3\n")
        with pytest.raises(CircuitParseError):
            parse_matrix_text("")
        with pytest.raises(CircuitParseError):
            parse_matrix_text("a b c d e f g h\n" * 4)
        with pytest.raises(NotUnitary):
            parse_matrix_text("2 0 0 0 0 0 0 0\n" * 4)


#: Tokens of malformed matrix text: non-finite and overflowing numbers,
#: words, and empty tokens (which leave a short line or an empty one).
_BAD_TOKENS = st.one_of(
    st.sampled_from(("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity", "", "1j", "0x1")),
    st.text(alphabet="abcxyz.-+e", min_size=1, max_size=4),
)


@st.composite
def malformed_matrix_text(draw):
    """A Haar unitary from a drawn seed in the matrix format, with drawn
    edits: a token replaced by a bad one, a token dropped or added, a line
    dropped, an empty line inserted; or lines of drawn tokens."""
    if draw(st.booleans()):
        lines = draw(st.lists(st.lists(st.one_of(_BAD_TOKENS, st.just("0.5")), max_size=9), max_size=6))
        return "\n".join(" ".join(line) for line in lines)
    u = nm.haar_unitary(4, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    rows = [["%.17g" % x for z in row for x in (z.real, z.imag)] for row in u]
    for _ in range(draw(st.integers(1, 3))):  # at most 3 of the 4 lines go
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(("replace", "drop", "add", "drop-line", "empty-line")))
        if edit in ("replace", "drop") and rows[r]:
            k = draw(st.integers(0, len(rows[r]) - 1))
            if edit == "replace":
                rows[r][k] = draw(_BAD_TOKENS)
            else:
                del rows[r][k]
        elif edit == "add":
            rows[r].append(draw(st.one_of(_BAD_TOKENS, st.just("0"))))
        elif edit == "drop-line":
            del rows[r]
        else:
            rows.insert(r, [])
    return "\n".join(" ".join(row) for row in rows)


class TestMatrixTextProperties:
    def test_malformed_text_raises_only_typed_errors(self):
        # A refusal is a Q2SynthError; anything accepted is a 4x4 unitary.
        @settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @given(malformed_matrix_text())
        # An infinite imaginary part passed a finiteness check of the real
        # parts and made the unitarity product warn.
        @example("1 inf 0 0 0 0 0 0\n0 0 1 0 0 0 0 0\n0 0 0 0 1 0 0 0\n0 0 0 0 0 0 1 0")
        def check(text):
            try:
                m = parse_matrix_text(text)
            except Q2SynthError:
                return
            assert m.shape == (4, 4) and nm.is_unitary(m)

        check()


class TestSynthCommand:
    def test_qft2_synthesis_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "synth", "--gate", "qft2", "--lib", "cyz")
        assert code == 0
        circuit = parse_circuit(out)  # metadata lines are comments
        assert circuit.cnot_count == 3
        assert nm.phase_distance(simulate(circuit), QFT2) <= 1e-10

    @pytest.mark.parametrize("lib", ["cyz", "cxy", "cxz", "basic"])
    def test_each_library(self, capsys, lib):
        code, out, _ = run(capsys, "synth", "--gate", "random", "--seed", "3", "--lib", lib)
        assert code == 0
        assert "# residual:" in out
        circuit = parse_circuit(out)
        assert circuit.cnot_count == 3
        u = named_gate("random", 3)
        assert nm.phase_distance(simulate(circuit), u) <= 1e-8

    def test_identity_cxz(self, capsys):
        code, out, _ = run(capsys, "synth", "--gate", "identity", "--lib", "cxz")
        assert code == 0
        circuit = parse_circuit(out)
        assert nm.phase_distance(simulate(circuit), np.eye(4)) <= 1e-8

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "synth", "--gate", "random", "--seed", "5", "--enumerate", "4")
        assert code == 0
        assert out.count("# --- candidate") >= 2

    def test_qasm(self, capsys):
        code, out, _ = run(capsys, "synth", "--gate", "cz", "--qasm")
        assert code == 0
        assert "OPENQASM 2.0;" in out

    def test_verify_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "synth", "--gate", "random", "--verify-tol", "1e-18")
        assert code == 3
        assert "verification" in err

    def test_nan_verify_tol_exit_code(self, capsys):
        # A NaN bound would accept any circuit: it is refused as bad input.
        code, _, err = run(capsys, "synth", "--gate", "cnot", "--verify-tol", "nan")
        assert code == 2
        assert "tol >= 0" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_enumerate_below_one_exit_code(self, capsys, count):
        code, _, err = run(capsys, "synth", "--gate", "cnot", "--enumerate", count)
        assert code == 2
        assert "limit must be >= 1" in err

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["--verify-tol", "nan"], 2),
            (["--enumerate", "0"], 2),
            (["--verify-tol", "1e-18"], 3),
            (["--enumerate", "4", "--verify-tol", "1e-18"], 3),
        ],
    )
    def test_refused_synth_writes_nothing_to_stdout(self, capsys, argv, exit_code):
        code, out, err = run(capsys, "synth", "--gate", "random", "--seed", "5", *argv)
        assert code == exit_code
        assert out == ""
        assert err

    def test_matrix_input(self, tmp_path, capsys):
        u = named_gate("random", 9)
        path = tmp_path / "m.txt"
        path.write_text(
            "\n".join(" ".join("%.17g %.17g" % (z.real, z.imag) for z in row) for row in u) + "\n"
        )
        code, out, _ = run(capsys, "synth", "--matrix", str(path))
        assert code == 0
        assert nm.phase_distance(simulate(parse_circuit(out)), u) <= 1e-8

    def test_bad_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        code, _, err = run(capsys, "cost", "--matrix", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "cost", "--matrix", "/does/not/exist")
        assert code == 2


class TestReports:
    def test_cost_values(self, capsys):
        for gate, expect in (("identity", "0"), ("cnot", "1"), ("cz", "1"), ("swap", "3")):
            code, out, _ = run(capsys, "cost", "--gate", gate)
            assert code == 0
            assert out.strip() == expect

    def test_invariants_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--gate", "cnot")
        assert code == 0
        assert "gamma spectrum:" in out
        assert "chi coefficients:" in out
        assert "im trace gamma:" in out
        assert "cnot_cost: 1" in out

    def test_reduce_command(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("CNOT 0 1\nCNOT 1 0\nCNOT 0 1\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert "SWAP" in out
        assert "# gates: 3 -> 1" in out

    def test_reduce_cancellation(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("CNOT 0 1\nCNOT 0 1\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert parse_circuit(out).gates == ()

    def test_reduce_fixed_point(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("CNOT 0 1\nRX 0 0.5\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert "# gates: 2 -> 2" in out
        assert "# step:" not in out

    def test_separated_command(self, tmp_path, capsys):
        path = tmp_path / "sep.txt"
        path.write_text("CNOT 1 0\nRX 1 0.8\nCNOT 1 0\n")
        code, out, _ = run(capsys, "separated", str(path), "--depth", "8")
        assert code == 0
        assert out.strip() == "true (certified to depth 8)"

        path.write_text("CNOT 0 1\nRX 0 0.8\nCNOT 1 0\n")
        code, out, _ = run(capsys, "separated", str(path))
        assert code == 0
        assert out.strip() == "false"

    def test_separated_unsupported_gate(self, tmp_path, capsys):
        path = tmp_path / "sep.txt"
        path.write_text("RY 0 0.4\n")
        code, _, err = run(capsys, "separated", str(path))
        assert code == 2

    def test_circuit_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("BANANA 0 1\n")
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("text", ["RX 0 0.5 7\n", "CNOT 0 1 junk\n", "SWAP 0 1\n"])
    def test_trailing_values_exit(self, tmp_path, capsys, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        code, out, err = run(capsys, "reduce", str(path))
        assert code == 2
        assert out == ""
        assert "line 1" in err


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        code, out1, _ = run(capsys, "selftest", "--trials", "3", "--seed", "11")
        assert code == 0
        assert "FAIL" not in out1
        code, out2, _ = run(capsys, "selftest", "--trials", "3", "--seed", "11")
        assert out1 == out2

    def test_zero_trials_exit_code(self, capsys):
        code, out, err = run(capsys, "selftest", "--trials", "0")
        assert (code, out) == (2, "")
        assert "trials must be >= 1" in err

    def test_single_trial(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "1", "--seed", "0")
        assert code == 0
        assert "gamma-properties" in out

    def test_reduce_row_runs_the_one_qubit_tests(self, monkeypatch):
        # The reduce-semantics row must merge Generic1Qs and move Paulis
        # through CNOTs, not only handle rotations.
        seen = []
        reduce_circuit = cli.reduce_circuit

        def recording(c):
            out = reduce_circuit(c)
            seen.append((c, out[1]))
            return out

        monkeypatch.setattr(cli, "reduce_circuit", recording)
        worst, ok = cli._selftest_reduce(np.random.default_rng(0), 25)
        assert ok and worst <= nm.ROUNDING_TOL
        # (rule id, whether its window holds a Generic1Q) of every step.
        fired = set()
        for c, trace in seen:
            for rule_id, pos in trace.steps:
                fired.add((rule_id, any(isinstance(g, Generic1Q) for g in c.gates[pos : pos + 2])))
                c = apply_rule(c, rule_id, pos)
        assert {"CommuteSxTarget", "CommuteSzControl"} <= {rule_id for rule_id, _ in fired}
        assert ("MergeRotations", True) in fired


def _child_env():
    """Environment for a child interpreter that imports the q2synth this process imported.

    The directory holding the package goes first on ``PYTHONPATH``, so neither a
    stale install in site-packages nor the caller's own ``PYTHONPATH`` decides
    which copy of the code a subprocess test runs.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(q2synth.__file__)))
    paths = [root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _console_script_source(name):
    """Source of the wrapper pip and setuptools generate for console script ``name``.

    The target is read from ``[project.scripts]`` in the repository's
    ``pyproject.toml``, so the test runs what an install would put on ``PATH``.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    assert module and attr, "entry point %r is not 'module:attr'" % entry
    return f"import sys\nfrom {module} import {attr}\nsys.argv[0] = {name!r}\nsys.exit({attr}())\n"


def _run(argv):
    return subprocess.run(argv, capture_output=True, text=True, env=_child_env())


class TestEntryPointsAndBackends:
    def test_console_script(self, tmp_path):
        script = [sys.executable, "-c", _console_script_source("q2synth")]
        proc = _run(script + ["cost", "--gate", "swap"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"
        # A non-zero code returned by the entry point must reach the shell.
        proc = _run(script + ["cost", "--matrix", str(tmp_path / "missing.txt")])
        assert proc.returncode == 2, proc.stderr
        assert "error" in proc.stderr

    def test_pure_backend_selftest(self):
        proc = _run([sys.executable, "-m", "q2synth.cli", "selftest", "--trials", "2", "--seed", "1"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout

    def test_module_invocation_matches_console(self):
        argv = ["cost", "--gate", "cnot"]
        by_module = _run([sys.executable, "-m", "q2synth.cli", *argv])
        by_script = _run([sys.executable, "-c", _console_script_source("q2synth"), *argv])
        assert by_module.returncode == 0, by_module.stderr
        assert by_module.stdout.strip() == "1"
        assert (by_script.returncode, by_script.stdout) == (by_module.returncode, by_module.stdout)
