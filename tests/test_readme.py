"""The README's examples: its Python blocks run as written, and its command
line examples print what the commands print."""

import contextlib
import io
import re
import sys
from pathlib import Path

from q2synth.circuit import Rotation, parse_circuit
from q2synth.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def blocks(language):
    """The fenced blocks of the README in ``language``, in order."""
    return re.findall(r"```%s\n(.*?)```" % language, README, re.S)


def console_examples():
    """{command: output} of the README's console block."""
    (block,) = blocks("console")
    examples = {}
    for chunk in block.split("$ ")[1:]:
        command, _, output = chunk.partition("\n")
        examples[command] = output.rstrip("\n")
    return examples


def run(capsys, monkeypatch, argv, stdin=""):
    """(exit code, stdout) of the command line on ``argv``."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    return code, capsys.readouterr().out


def shapes(text):
    """The gate names and wires of a circuit text, without the angles."""
    return [
        (type(g).__name__, g.axis, g.qubit) if isinstance(g, Rotation) else g
        for g in parse_circuit(text).gates
    ]


class TestPythonExamples:
    def test_the_python_blocks_run(self):
        # The blocks run in order in one namespace, as a reader would.
        namespace, out = {}, io.StringIO()
        with contextlib.redirect_stdout(out):
            for block in blocks("python"):
                exec(compile(block, "README.md", "exec"), namespace)
        printed = out.getvalue().split()
        # cnot_count, then effective separation of the cxz circuit of seed 7.
        assert printed[0] == "3"
        assert printed[-1] == "True"


class TestCommandLineExamples:
    def test_synth(self, capsys, monkeypatch):
        expected = console_examples()["q2synth synth --gate qft2 --lib cxz"]
        code, out = run(capsys, monkeypatch, ["synth", "--gate", "qft2", "--lib", "cxz"])
        assert code == 0

        def header(text, name):
            return [line for line in text.splitlines() if line.startswith("# %s:" % name)]

        for name in ("eigen-order", "counts"):
            assert header(out, name) == header(expected, name)
        # The angles are left out: rounding may move them in the last digits.
        assert shapes(out) == shapes(expected)

    def test_cost(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["cost", "--gate", "swap"])
        assert code == 0
        assert out.rstrip("\n") == console_examples()["q2synth cost --gate swap"]

    def test_invariants(self, capsys, monkeypatch):
        # The trace and cost lines, verbatim; the spectrum and chi lines
        # carry rounding-level parts and are abridged in the README.
        expected = console_examples()["q2synth invariants --gate cnot"]
        code, out = run(capsys, monkeypatch, ["invariants", "--gate", "cnot"])
        assert code == 0

        def exact(text):
            names = ("trace gamma:", "im trace gamma:", "cnot_cost:")
            return [line for line in text.splitlines() if line.startswith(names)]

        assert len(exact(expected)) == 3
        assert exact(out) == exact(expected)

    def test_reduce(self, capsys, monkeypatch):
        (command,) = [c for c in console_examples() if c.endswith("q2synth reduce -")]
        stdin = command.split("'")[1].encode().decode("unicode_escape")
        code, out = run(capsys, monkeypatch, ["reduce", "-"], stdin)
        assert code == 0
        assert out.rstrip("\n") == console_examples()[command]
