"""The golden outputs: ``synthesize`` and ``cnot_cost`` on the emission
corpus, and ``reduce`` and ``effectively_separated`` on the benchmark's
reduce-long inputs of seeds 321-325, as ``tests/golden/*.json`` record them
(``tools/golden.py`` regenerates both files).  The outputs are asserted on
any Python and NumPy; a failure names how many entries changed, the first
five, and the versions the file was made on."""

import functools
import json

import golden
import pytest

from q2synth.rewrite import reduce
from test_synthesis import emitted_results


@functools.lru_cache(maxsize=None)
def reduce_outputs():
    """``golden.reduce_outputs()``, made once for the tests that read it."""
    return golden.reduce_outputs()


#: {file name: the record this tree makes for it}.
MADE = {
    "reduce.json": lambda: golden.reduce_record(*reduce_outputs()),
    "synthesis.json": lambda: golden.synthesis_record(emitted_results()),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(MADE))
    def test_outputs_match_the_golden_file(self, name):
        recorded = json.loads((golden.GOLDEN / name).read_text())
        changed = golden.changed_entries(recorded, MADE[name]())
        assert not changed, "%s: %d entries changed, first %s; golden file made on Python %s, NumPy %s" % (
            name, len(changed), ", ".join(changed[:5]), recorded["python"], recorded["numpy"])

    def test_reduce_reaches_its_fixed_point_in_one_call(self):
        reduced, _ = reduce_outputs()
        assert len(reduced) == 240
        for name, (out, _) in reduced.items():
            assert reduce(out)[1].steps == (), name
