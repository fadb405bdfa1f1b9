#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of q2synth.

Usage, from the repository root::

    python3 perfbench/run.py --workload haar-synth --seed 1 --seconds 35 --trace 0

Workloads: ``haar-synth``, ``weyl-degenerate``, ``reduce-long`` (see
``workloads.py``).  One closed-loop client on one thread sends a request,
waits for it, checks every output against the plain-NumPy reference in
``reference.py`` (outside the timed region) and sends the next, for
``--seconds`` of wall time.

End-to-end times are calibrated: a fixed calibration loop runs between
requests, and each request's time is rescaled to a machine on which that
loop takes ``CAL_REF_S`` (see there); raw times are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced requests, wraps the package's public functions from
outside (``spans.py``), writes the spans to ``.bench_out/`` and prints the
per-layer metrics.  Human-readable lines and one ``detail`` JSON line come
first; the last line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the API calls of the timed loop.  ``failed`` counts
those that raised or returned a wrong answer.  A workload with a fixed pool
of requests (``weyl-degenerate``) is screened first: each pooled call runs
once, untimed, and is checked; the calls q2synth refuses with a typed error
are counted in the printed ``fail_ratio`` (over distinct inputs) and left
out of the timed loop.  ``correct`` is false if any call, screened or timed,
returned a wrong answer or raised an exception that is not one of q2synth's
typed errors.  The package is imported from ``src/`` next to this
directory; the script exits with status 2, printing no result, when it is
not there.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread: the benchmark measures a single-threaded client.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9

#: The speed unit.  On a shared virtual machine the speed of a core can drift
#: by up to 2x for tens of seconds at a time (other tenants load the same
#: hardware), which swamps any change worth measuring.  So every end-to-end
#: time is measured alongside ``calibrate()`` and reported as ``raw time *
#: CAL_REF_S / calibration time``: the time on a machine where the
#: calibration takes exactly CAL_REF_S.  Raw times are printed too.
CAL_REF_S = 2e-3
CAL_ITERS = 25
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((4, 4)) + 1j * _CAL_RNG.standard_normal((4, 4))
_CAL_X = _CAL_A[:2, :2].copy()
_CAL_TABLE = list(range(200_000))
_CAL_KEYS = {i: i for i in range(0, 200_000, 7)}
_CAL_PROBES = _CAL_RNG.integers(0, 200_000, 3000).tolist()

RULE_IDS = (
    "CancelCNOT",
    "CancelSWAP",
    "CNOTPairToSWAP",
    "CommuteRxTarget",
    "CommuteRzControl",
    "CommuteSxTarget",
    "CommuteSzControl",
    "MoveSigmaX",
    "MoveSigmaZ",
    "MoveCNOTviaSWAP",
    "Move1QviaSWAP",
    "MergeRotations",
    "AxisChange",
    "FlipCNOTPair",
)
EPS_LABELS = ("eps0", "eps1e-12", "eps1e-9", "eps1e-6", "eps1e-4")
LAYERS = ("numerics", "kernels", "invariants", "circuit", "synthesis", "rewrite")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_names():
    out = []
    for fn in ("diagonalize_symmetric_unitary", "phase_distance"):
        out += [("numerics.%s.calls_per_op" % fn, "count"), ("numerics.%s.self_us_per_op" % fn, "us")]
    out += [("numerics.%s.calls_per_op" % fn, "count") for fn in ("is_unitary", "kron", "charpoly4")]
    out += [("kernels.jacobi_real_sym.calls_per_op", "count"), ("kernels.jacobi_real_sym.self_us_per_op", "us")]
    out += [("kernels.gamma4.calls_per_op", "count")]
    out += [("circuit.simulate.calls_per_op", "count"), ("circuit.simulate.gates_per_call", "count")]
    out += [("circuit.simulate.self_us_per_op", "us")]
    for fn in ("su4_normalize", "euler_decompose", "tensor_factor"):
        out += [("circuit.%s.calls_per_op" % fn, "count"), ("circuit.%s.self_us_per_op" % fn, "us")]
    out += [("invariants.invariant_data.self_us_per_op", "us")]
    out += [("invariants.cost_verdict.k%d" % k, "count") for k in range(4)]
    out += [("invariants.cost_verdict.%s.k%d" % (e, k), "count") for e in EPS_LABELS for k in range(4)]
    out += [("synthesis.synthesize.us_per_call", "us"), ("synthesis.synthesize.self_us_per_call", "us")]
    out += [("synthesis.core_params.self_us_per_op", "us")]
    out += [("synthesis.match_local_factors.self_us_per_op", "us")]
    out += [("synthesis.candidates_per_op", "count"), ("synthesis.useful_ratio", "ratio")]
    out += [("synthesis.fail_ratio", "ratio")]
    out += [("rewrite.rule_match.attempts_per_op", "count"), ("rewrite.steps_per_op", "count")]
    out += [("rewrite.useful_ratio", "ratio")]
    out += [("rewrite.reduce.us.n%d" % n, "us") for n in (50, 100, 200, 400)]
    out += [("rewrite.rule_hits.%s" % r, "count") for r in RULE_IDS]
    out += [("layer.%s.self_us_per_op" % layer, "us") for layer in LAYERS]
    out += [("trace.overhead_ratio", "ratio")]
    return tuple(out)


PER_LAYER = _per_layer_names()


def calibrate():
    """Seconds taken by fixed work: small NumPy calls, as in synthesis, then
    scattered reads of a few MB of Python objects.  Contention on a shared
    core slows q2synth more than it slows the NumPy part alone; with the
    reads added the two slow down much more alike."""
    a, at, x = _CAL_A, _CAL_A.T, _CAL_X
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        m = a @ at
        k = np.kron(x, x)
        np.linalg.norm(m - k)
        np.trace(m) * abs(np.linalg.det(m))
    total = 0
    for i in _CAL_PROBES:
        total += _CAL_TABLE[i] + _CAL_KEYS.get(i, 0)
    return time.perf_counter() - t0


class Stats:
    """Timings and check outcomes of one set of requests.  ``latency`` and
    ``calls`` hold calibrated seconds; ``raw_latency`` and ``calibration``
    the seconds measured."""

    def __init__(self):
        self.latency = []
        self.raw_latency = []
        self.calibration = []
        self.calls = {}
        self.counters = Counter()
        self.attempted = 0
        self.refused = 0
        self.wrong = 0
        self.failures = Counter()


def import_package():
    """Import q2synth from ``src/`` beside the benchmark, or return None."""
    init = SRC / "q2synth" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import q2synth

    if Path(q2synth.__file__).resolve() != init.resolve():
        return None
    return q2synth


def measure_setup():
    """Median time to import q2synth in a fresh interpreter, in seconds:
    (calibrated, raw)."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t = time.perf_counter()\n"
        "import q2synth\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        c0 = calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        c1 = calibrate()
        if i:  # the first import also writes the bytecode cache
            t = float(proc.stdout.strip().splitlines()[-1])
            raw.append(t)
            times.append(t * 2.0 * CAL_REF_S / (c0 + c1))
    return statistics.median(times), statistics.median(raw)


def metadata(args, q):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cal_ref_s": CAL_REF_S,
        "backend": getattr(q, "BACKEND_NAME", "numpy"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def execute(calls, q):
    """Run one request's calls; only the calls themselves are timed."""
    clock = time.perf_counter
    outcomes = []
    for call in calls:
        fn = getattr(q, call.api)
        t0 = clock()
        try:
            out, err = fn(*call.args), None
        except Exception as exc:  # judged by record(), never propagated
            out, err = None, exc
        outcomes.append((call, clock() - t0, out, err))
    return outcomes


def record(stats, outcomes, q, cal):
    """Tally one request; ``cal`` is the calibration time measured with it."""
    scale = CAL_REF_S / cal
    raw = sum(dt for _, dt, _, _ in outcomes)
    stats.raw_latency.append(raw)
    stats.latency.append(raw * scale)
    stats.calibration.append(cal)
    for call, dt, out, err in outcomes:
        stats.attempted += 1
        stats.calls.setdefault(call.kind, []).append(dt * scale)
        if err is not None:
            if isinstance(err, q.Q2SynthError):
                stats.refused += 1
            else:
                stats.wrong += 1
            stats.failures[(call.kind, call.label, type(err).__name__)] += 1
            continue
        reason = call.check(out, stats.counters)
        if reason is not None:
            stats.wrong += 1
            stats.failures[(call.kind, call.label, reason)] += 1


def screen(workload, q):
    """Run each pooled request once and check it; drop from the pool the
    calls that q2synth refused with a typed error.  Returns the Stats of
    the pass (their times are not reported)."""
    stats, kept = Stats(), []
    for calls in workload.pool:
        outcomes = execute(calls, q)
        record(stats, outcomes, q, CAL_REF_S)
        kept.append([c for c, _, _, err in outcomes if not isinstance(err, q.Q2SynthError)])
    workload.pool = [calls for calls in kept if calls]
    return stats


def fail_ratios(stats):
    """(all calls, synthesize calls): failed / attempted."""
    synth = sum(len(v) for k, v in stats.calls.items() if k.startswith("synth_"))
    synth_failed = sum(v for (kind, _, _), v in stats.failures.items() if kind.startswith("synth_"))
    return (stats.refused + stats.wrong) / stats.attempted, synth_failed / synth if synth else 0.0


def run_loop(workload, seconds, q, tracer=None):
    """Closed loop for ``seconds``; with a tracer, every other request is
    traced.  Each request is scaled by the mean of the calibrations run just
    before and just after it."""
    plain, traced = Stats(), Stats()
    execute(workload.next_request(), q)  # warm-up, not recorded
    t_end = time.perf_counter() + seconds
    i = 0
    c1 = calibrate()
    while time.perf_counter() < t_end:
        calls = workload.next_request()
        on = tracer is not None and i % 2 == 1
        c0 = c1
        if on:
            tracer.install()
            tracer.begin(i)
        outcomes = execute(calls, q)
        if on:
            tracer.end()
            tracer.uninstall()
        c1 = calibrate()
        record(traced if on else plain, outcomes, q, (c0 + c1) / 2.0)
        i += 1
    return plain, traced


def _us(x):
    return float(x) * 1e6


def end_to_end(stats, workload):
    lat = np.asarray(stats.latency)
    pct = workload.tail_percentile
    tail = float(np.percentile(lat, pct))
    metrics = {
        "ops_per_s": _rate(stats),
        "op_p50_us": _us(np.median(lat)),
        "op_tail_us": _us(tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    c = stats.counters
    detail = {
        "requests": len(lat),
        "raw_ops_per_s": len(lat) / sum(stats.raw_latency),
        "raw_op_p50_us": _us(np.median(stats.raw_latency)),
        "calibration_p50_us": _us(np.median(stats.calibration)),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": int((lat > tail).sum()),
        "refused": stats.refused,
        "wrong": stats.wrong,
    }
    for kind in ("synth_cyz", "synth_cxy", "synth_cxz", "synth_basic", "cost", "separated"):
        if kind in stats.calls:
            detail[kind + "_p50_us"] = _us(np.median(stats.calls[kind]))
    if c["circuits"]:
        detail["basic_count_mean"] = c["basic_count"] / c["circuits"]
    reduce_time = sum(sum(v) for k, v in stats.calls.items() if k.startswith("reduce_"))
    if reduce_time:
        detail["reduce_gates_per_s"] = c["reduce.gates_in"] / reduce_time
        detail["reduce_ratio"] = c["reduce.gates_out"] / c["reduce.gates_in"]
    return metrics, detail


def per_layer(plain, traced, tracer, distinct):
    n = max(len(traced.latency), 1)
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return a["name"] == ids[name]

    def calls(name):
        return int(mask(name).sum())

    def self_us(*names):
        return sum(_us(a["self"][mask(x)].sum()) for x in names) / n

    m = {}
    for fn in ("diagonalize_symmetric_unitary", "phase_distance", "is_unitary", "kron", "charpoly4"):
        m["numerics.%s.calls_per_op" % fn] = calls("numerics." + fn) / n
        m["numerics.%s.self_us_per_op" % fn] = self_us("numerics." + fn)
    m["kernels.jacobi_real_sym.calls_per_op"] = calls("kernels.jacobi_real_sym") / n
    m["kernels.jacobi_real_sym.self_us_per_op"] = self_us("kernels.jacobi_real_sym")
    m["kernels.gamma4.calls_per_op"] = calls("kernels.gamma4") / n
    sim = mask("circuit.simulate")
    m["circuit.simulate.calls_per_op"] = int(sim.sum()) / n
    m["circuit.simulate.gates_per_call"] = float(a["size"][sim].mean()) if sim.any() else 0.0
    for fn in ("simulate", "su4_normalize", "euler_decompose", "tensor_factor"):
        m["circuit.%s.calls_per_op" % fn] = calls("circuit." + fn) / n
        m["circuit.%s.self_us_per_op" % fn] = self_us("circuit." + fn)
    m["invariants.invariant_data.self_us_per_op"] = self_us("invariants.invariant_data")
    verdicts = plain.counters + traced.counters
    for k in range(4):
        m["invariants.cost_verdict.k%d" % k] = verdicts["verdict.k%d" % k]
        for e in EPS_LABELS:
            m["invariants.cost_verdict.%s.k%d" % (e, k)] = verdicts["verdict.%s.k%d" % (e, k)]

    syn = mask("synthesis.synthesize")
    n_syn = int(syn.sum())
    m["synthesis.synthesize.us_per_call"] = _us(a["dur"][syn].mean()) if n_syn else 0.0
    m["synthesis.synthesize.self_us_per_call"] = _us(a["self"][syn].mean()) if n_syn else 0.0
    m["synthesis.core_params.self_us_per_op"] = self_us("synthesis.core_params_cyz", "synthesis.core_params_cxz")
    m["synthesis.match_local_factors.self_us_per_op"] = self_us("synthesis.match_local_factors")
    candidates = calls("synthesis.core_params_cyz") + calls("synthesis.core_params_cxz")
    m["synthesis.candidates_per_op"] = candidates / n_syn if n_syn else 0.0
    m["synthesis.useful_ratio"] = traced.counters["circuits"] / candidates if candidates else 0.0
    m["synthesis.fail_ratio"] = fail_ratios(distinct)[1]

    tc = traced.counters
    attempts = sum(v for (counter, _), v in tracer.counts.items() if counter == "rewrite.rule_match")
    in_reduce = tracer.counts.get(("rewrite.rule_match", "rewrite.reduce"), 0)
    m["rewrite.rule_match.attempts_per_op"] = attempts / n
    m["rewrite.steps_per_op"] = tc["reduce.steps"] / n
    m["rewrite.useful_ratio"] = tc["reduce.steps"] / in_reduce if in_reduce else 0.0
    red = mask("rewrite.reduce")
    for size in (50, 100, 200, 400):
        sel = red & (a["size"] == size)
        m["rewrite.reduce.us.n%d" % size] = _us(np.median(a["dur"][sel])) if sel.any() else 0.0
    for rule in RULE_IDS:
        m["rewrite.rule_hits.%s" % rule] = tc["rule." + rule] / n

    for layer in LAYERS:
        m["layer.%s.self_us_per_op" % layer] = self_us(*[x for x in ids if x.startswith(layer + ".")])
    m["trace.overhead_ratio"] = _rate(traced) / _rate(plain)
    return {name: m[name] for name, _ in PER_LAYER}


def _rate(stats):
    return len(stats.latency) / sum(stats.latency)


def synthesize_split(tracer):
    """Mean us per synthesize call: self time of each layer function in its
    call tree, plus synthesize's own (unattributed) remainder."""
    a = tracer.arrays()
    root = np.arange(len(a["dur"]))
    while True:
        up = a["parent"][root]
        if not (up >= 0).any():
            break
        root = np.where(up >= 0, up, root)
    syn_id = tracer.names.index("synthesis.synthesize")
    in_syn = a["name"][root] == syn_id
    n_syn = int((a["name"] == syn_id).sum())
    if not n_syn:
        return None
    split = {}
    for i, name in enumerate(tracer.names):
        sel = in_syn & (a["name"] == i)
        if sel.any():
            split[name] = _us(a["self"][sel].sum()) / n_syn
    total = _us(a["dur"][a["name"] == syn_id].sum()) / n_syn
    return split, total


def _detail_unit(name):
    for suffix, unit in (("_us", "us"), ("_per_s", "1/s"), ("_ratio", "ratio"), ("_percentile", "%"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print("  %-48s %16.6g %s" % (name, value, unit))


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One core for the whole run, so each calibration loop runs where the
    # request it scales runs; the set-up subprocesses inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    q = import_package()
    if q is None:
        print("error: q2synth sources not found under %s" % SRC, file=sys.stderr)
        return 2
    from spans import Tracer

    meta = metadata(args, q)
    workload = WORKLOADS[args.workload](q, args.seed)
    screened = screen(workload, q) if workload.pool is not None else None
    if args.trace:
        tracer = Tracer()
        meta["traced_layers"] = tracer.layers
        plain, traced = run_loop(workload, args.seconds, q, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / ("spans-%s.npz" % args.workload))
        metrics = per_layer(plain, traced, tracer, screened or plain)
        units = dict(PER_LAYER)
        split = synthesize_split(tracer)
        if split is not None:
            parts, total = split
            rows = [(k, v, "us") for k, v in sorted(parts.items(), key=lambda kv: -kv[1])]
            rows.append(("sum of self times", sum(parts.values()), "us"))
            rows.append(("synthesize total", total, "us"))
            print_table("synthesize split, per call:", rows)
        detail = {"traced_requests": len(traced.latency), "untraced_requests": len(plain.latency)}
    else:
        setup_s, raw_setup_s = measure_setup()
        plain, traced = run_loop(workload, args.seconds, q)
        metrics, detail = end_to_end(plain, workload)
        metrics["setup_s"] = setup_s
        detail["raw_setup_s"] = raw_setup_s
        units = dict(END_TO_END)
        metrics = {k: metrics[k] for k in units}
    # The failure ratios are over distinct inputs: the screened pool, or
    # the fresh requests of the timed loop.
    distinct = screened or plain
    detail["fail_ratio"], detail["synth_fail_ratio"] = fail_ratios(distinct)
    if screened is not None:
        detail["screened_calls"] = screened.attempted
        detail["screen_refused"] = screened.refused
        detail["screen_wrong"] = screened.wrong
    stats = (plain, traced)
    attempted = sum(s.attempted for s in stats)
    failed = sum(s.refused + s.wrong for s in stats)
    failures = sum((s.failures for s in stats + (screened or Stats(),)), Counter())
    detail["failures"] = ["%s %s: %s x%d" % (k + (v,)) for k, v in sorted(failures.items())]

    print_table("%s metrics:" % args.workload, [(k, v, units[k]) for k, v in metrics.items()])
    extra = [(k, v, _detail_unit(k)) for k, v in detail.items() if isinstance(v, (int, float))]
    print_table("detail:", extra)
    print(json.dumps({"meta": meta, "detail": detail}))
    result = {
        "correct": all(s.wrong == 0 for s in stats + (screened or Stats(),)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
