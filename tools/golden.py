"""Regenerate the golden outputs in tests/golden/.

``reduce.json`` holds ``reduce`` and ``effectively_separated`` on the
requests of the benchmark's reduce-long workload (``perfbench/workloads.py``)
for each seed in ``SEEDS``: for each ``reduce`` call, 16 hex digits of the
SHA-256 of its output circuit (``circuit_to_text``) and its trace's steps;
for each seed, the ``effectively_separated`` answers on that seed's
separation circuits, one digit (1 for True) per circuit in request order.

``synthesis.json`` holds ``synthesize`` and ``cnot_cost`` on the inputs of
``emission_corpus()`` (``tests/test_synthesis.py``): for each library and
corpus index, 16 hex digits of the SHA-256 of the circuit
(``circuit_to_text``), its tag and ``repr`` of its residual; for each input
of ``tied_corner_inputs()``, one digest of all four libraries' results and
its ``cnot_cost``; and the ``cnot_cost`` answers on the corpus, one digit
per input.

Both files record the Python and NumPy versions and the machine they were
made on.  Run from the repository root, after a change that alters these
outputs on purpose:

    PYTHONPATH=src python tools/golden.py

A file is rewritten only when some entry differs from it, and the script
prints how many entries of each section differ.
"""

import collections
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import q2synth  # noqa: E402
import test_synthesis  # noqa: E402
import workloads  # noqa: E402
from q2synth import GateLibrary  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SEEDS = (321, 322, 323, 324, 325)
#: Requests per seed; each holds one circuit of every size in REDUCE_SIZES.
REQUESTS = 12
#: The keys of a record that say where it was made, not what it holds.
MADE_ON = ("python", "numpy", "machine")
#: The sections that hold one answer per digit, in input order.
ANSWERS = ("effectively_separated", "cnot_cost")


def digest(text):
    """16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reduce_text(out, trace):
    """A reduce output and its steps, as the text its digest is taken of."""
    return q2synth.circuit_to_text(out) + "--\n" + "".join("%s %d\n" % step for step in trace.steps)


def synthesis_text(result):
    """A synthesized circuit, its tag and its residual, as text."""
    return "%s--\n%s %r\n" % (q2synth.circuit_to_text(result.circuit), result.eigen_order, result.residual)


def reduce_outputs():
    """({name: (output, trace)} of every reduce call, {seed: answers} of the
    separation circuits), both keyed in request order."""
    reduced, separated = {}, {}
    for seed in SEEDS:
        workload = workloads.ReduceLong(q2synth, seed)
        answers = []
        for index in range(REQUESTS):
            for call in workload.next_request():
                if call.api == "reduce":
                    reduced["%d/%02d/%s" % (seed, index, call.label)] = q2synth.reduce(*call.args)
                else:
                    answers.append("1" if q2synth.effectively_separated(*call.args) else "0")
        separated[str(seed)] = "".join(answers)
    return reduced, separated


def reduce_record(reduced, separated):
    """The entries of reduce.json from ``reduce_outputs()``."""
    return {
        "reduce": {name: digest(reduce_text(*output)) for name, output in reduced.items()},
        "effectively_separated": separated,
    }


def tied_corner_text(u):
    """Every library's result on ``u`` and ``cnot_cost(u)``, as text."""
    parts = [synthesis_text(q2synth.synthesize(u, lib)) for lib in GateLibrary]
    return "".join(parts) + "cnot_cost %d\n" % q2synth.cnot_cost(u)


def synthesis_record(results):
    """The entries of synthesis.json from ``results``, the (library,
    result) pairs of ``emitted_results()``: input by input, each input in
    every library."""
    corpus = test_synthesis.emission_corpus()
    assert len(results) == len(GateLibrary) * len(corpus)
    synthesized = sorted(
        ("%s/%04d" % (lib.value, index // len(GateLibrary)), digest(synthesis_text(result)))
        for index, (lib, result) in enumerate(results)
    )
    return {
        "synthesize": dict(synthesized),
        "tied_corners": {
            "%02d" % i: digest(tied_corner_text(u)) for i, u in enumerate(test_synthesis.tied_corner_inputs())
        },
        "cnot_cost": "".join(str(q2synth.cnot_cost(u)) for u in corpus),
    }


def entries(record):
    """{key: value} of a record's entries, without MADE_ON: "section/key"
    for each digest, and one key per answer of the ANSWERS sections,
    "section/index" or "section/seed/index"."""
    flat = {}
    for section, value in record.items():
        if section in MADE_ON:
            continue
        for key, item in value.items() if isinstance(value, dict) else [(None, value)]:
            name = section if key is None else "%s/%s" % (section, key)
            if section in ANSWERS:
                flat.update(("%s/%d" % (name, i), answer) for i, answer in enumerate(item))
            else:
                flat[name] = item
    return flat


def changed_entries(old, new):
    """The keys of the entries that differ between records ``old`` and
    ``new``, or are in only one of them, in ``new``'s order then ``old``'s."""
    a, b = entries(old), entries(new)
    return [key for key in b if a.get(key) != b[key]] + [key for key in a if key not in b]


def records():
    """{file name: record} of both golden files as this tree makes them."""
    return {
        "reduce.json": reduce_record(*reduce_outputs()),
        "synthesis.json": synthesis_record(test_synthesis.emitted_results()),
    }


def main():
    made_on = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}
    GOLDEN.mkdir(exist_ok=True)
    for name, record in records().items():
        path = GOLDEN / name
        old = json.loads(path.read_text()) if path.exists() else {}
        changed = changed_entries(old, record)
        counts = collections.Counter(key.split("/")[0] for key in changed)
        sections = ", ".join("%s %d" % (section, counts[section]) for section in record)
        if not changed:
            print("%s: unchanged (%s)" % (path.relative_to(ROOT), sections))
            continue
        path.write_text(json.dumps({**made_on, **record}, indent=1) + "\n")
        print("%s: rewrote, %d of %d entries differ (%s)" % (
            path.relative_to(ROOT), len(changed), len(entries(record)), sections))


if __name__ == "__main__":
    main()
