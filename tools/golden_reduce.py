"""Regenerate tests/golden/reduce.json, the golden outputs of ``reduce``
and ``effectively_separated``.

The inputs are the requests of the benchmark's reduce-long workload
(``perfbench/workloads.py``) for each seed in ``SEEDS``.  For each
``reduce`` call the file holds 16 hex digits of the SHA-256 of its output
circuit (``circuit_to_text``) and its trace's steps; for each seed, the
``effectively_separated`` answers on that seed's separation circuits, one
digit (1 for True) per circuit in request order.  It also records the
Python and NumPy versions and the machine it was made on.

Run from the repository root, after a change that alters these outputs on
purpose:

    PYTHONPATH=src python tools/golden_reduce.py
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import q2synth  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "reduce.json"
SEEDS = (321, 322, 323, 324, 325)
#: Requests per seed; each holds one circuit of every size in REDUCE_SIZES.
REQUESTS = 12


def reduce_digest(out, trace):
    """16 hex digits of the SHA-256 of a reduce output and its steps."""
    steps = "".join("%s %d\n" % step for step in trace.steps)
    text = q2synth.circuit_to_text(out) + "--\n" + steps
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def entries():
    """({name: digest} of every reduce call, {seed: answers} of the
    separation circuits), both keyed in request order."""
    reduced, separated = {}, {}
    for seed in SEEDS:
        workload = workloads.ReduceLong(q2synth, seed)
        answers = []
        for index in range(REQUESTS):
            for call in workload.next_request():
                if call.api == "reduce":
                    name = "%d/%02d/%s" % (seed, index, call.label)
                    reduced[name] = reduce_digest(*q2synth.reduce(*call.args))
                else:
                    answers.append("1" if q2synth.effectively_separated(*call.args) else "0")
        separated[str(seed)] = "".join(answers)
    return reduced, separated


def main():
    reduced, separated = entries()
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "reduce": reduced,
        "effectively_separated": separated,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote %d reduce digests and %d separation answers to %s" % (
        len(reduced), sum(map(len, separated.values())), GOLDEN.relative_to(ROOT)))


if __name__ == "__main__":
    main()
