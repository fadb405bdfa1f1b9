"""Call tracing of q2synth from the outside.

``Tracer`` wraps public functions of the package's modules by rebinding
module (and class) attributes, so no line of ``src/`` changes.  Each wrapped
call made inside an operation records a span -- layer name, start, duration,
the id of the enclosing span, the id of the operation and an optional size --
into flat in-memory arrays; ``save`` writes them out once the run is over.
``RewriteRule.match`` is very hot and very cheap, so it is counted (per
enclosing span) instead of timed: a span there would cost more than the call.

A target that does not exist in the loaded package is skipped: layers come
and go as the package is simplified.
"""

import sys
import time
from array import array

import numpy as np


def _gate_count(c, *args, **kwargs):
    return len(c.gates)


#: (span name, module, attribute, size) of every timed call.  The span name
#: is the layer (package module, with ``_kernels`` spelt ``kernels``) and the
#: function; ``size`` maps the call's arguments to a recorded integer.
TIMED = (
    ("synthesis.synthesize", "q2synth.synthesis", "synthesize", None),
    ("synthesis.core_params_cyz", "q2synth.synthesis", "core_params_cyz", None),
    ("synthesis.core_params_cxz", "q2synth.synthesis", "core_params_cxz", None),
    ("synthesis.match_local_factors", "q2synth.synthesis", "match_local_factors", None),
    ("invariants.cnot_cost", "q2synth.invariants", "cnot_cost", None),
    ("invariants.invariant_data", "q2synth.invariants", "invariant_data", None),
    ("invariants.gamma", "q2synth.invariants", "gamma", None),
    ("circuit.simulate", "q2synth.circuit", "simulate", _gate_count),
    ("circuit.su4_normalize", "q2synth.circuit", "su4_normalize", None),
    ("circuit.euler_decompose", "q2synth.circuit", "euler_decompose", None),
    ("circuit.tensor_factor", "q2synth.circuit", "tensor_factor", None),
    ("numerics.diagonalize_symmetric_unitary", "q2synth.numerics", "diagonalize_symmetric_unitary", None),
    ("numerics.is_unitary", "q2synth.numerics", "is_unitary", None),
    ("numerics.is_special_unitary", "q2synth.numerics", "is_special_unitary", None),
    ("numerics.kron", "q2synth.numerics", "kron", None),
    ("numerics.phase_distance", "q2synth.numerics", "phase_distance", None),
    ("numerics.charpoly4", "q2synth.numerics", "charpoly4", None),
    ("kernels.jacobi_real_sym", "q2synth._kernels", "jacobi_real_sym", None),
    ("kernels.gamma4", "q2synth._kernels", "gamma4", None),
    ("kernels.charpoly4", "q2synth._kernels", "charpoly4", None),
    ("rewrite.reduce", "q2synth.rewrite", "reduce", _gate_count),
    ("rewrite.effectively_separated", "q2synth.rewrite", "effectively_separated", None),
)

#: (counter name, module, class, method) of every counted call.
COUNTED = (("rewrite.rule_match", "q2synth.rewrite", "RewriteRule", "match"),)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _, _ in TIMED]
        self.start = array("d")
        self.dur = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        #: (counter, enclosing span name or None) -> calls
        self.counts = {}
        self._stack = [-1]
        self._op_id = -1
        self._patches = []
        self.layers = []
        self._build()

    # -- installation -------------------------------------------------------

    def _build(self):
        """Find every binding of each target in the loaded package."""
        package = [m for k, m in sorted(sys.modules.items()) if k == "q2synth" or k.startswith("q2synth.")]
        for nid, (span_name, mod_name, attr, size) in enumerate(TIMED):
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                continue
            wrapper = self._timed(nid, orig, size)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig, wrapper))
            self.layers.append(span_name)
        for counter, mod_name, cls_name, meth in COUNTED:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                continue
            self._patches.append((cls, meth, orig, self._counted(counter, orig)))
            self.layers.append(counter)

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, nid, fn, size_of):
        clock = time.perf_counter
        stack = self._stack
        start, dur, name, parent, op, size = (
            self.start, self.dur, self.name, self.parent, self.op, self.size,
        )

        def wrapper(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            sid = len(dur)
            start.append(0.0)
            dur.append(0.0)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self._op_id)
            size.append(size_of(*args, **kwargs) if size_of is not None else -1)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                dur[sid] = t1 - t0

        return wrapper

    def _counted(self, counter, fn):
        counts, stack, name, names = self.counts, self._stack, self.name, self.names

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._op_id >= 0:
                sid = stack[-1]
                key = (counter, names[name[sid]] if sid >= 0 else None)
                counts[key] = counts.get(key, 0) + 1
            return out

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin(self, op_id):
        self._op_id = op_id

    def end(self):
        self._op_id = -1

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as NumPy arrays, with each span's self time: its duration
        minus the durations of its direct children."""
        out = {
            "start": np.array(self.start, dtype=np.float64),
            "dur": np.array(self.dur, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "size": np.array(self.size, dtype=np.int64),
        }
        child = out["parent"] >= 0
        children = np.bincount(
            out["parent"][child], weights=out["dur"][child], minlength=len(out["dur"])
        )
        out["self"] = out["dur"] - children
        return out

    def save(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: v for k, v in a.items() if k != "self"})
