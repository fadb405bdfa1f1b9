"""The tolerance model: every tolerance sits in the block at the top of
``numerics``, and every public call checks each input matrix once, through
``numerics.require_unitary``, at the tolerance that block gives it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import q2synth
from q2synth import numerics as nm
from q2synth.circuit import Axis, Generic1Q, euler_decompose, su4_normalize, tensor_factor
from q2synth.cli import parse_matrix_text
from q2synth.errors import NotSymmetricUnitary, NotUnitary, VerificationFailed
from q2synth.invariants import cnot_cost, gamma, invariant_data, same_double_coset, same_left_coset
from q2synth.synthesis import (
    GateLibrary,
    core_params_cxz,
    core_params_cyz,
    enumerate_circuits,
    match_local_factors,
    synthesize,
)

SRC = Path(q2synth.__file__).parent


def tolerance_block():
    """(first, last) line numbers of the tolerance block of numerics.py."""
    lines = (SRC / "numerics.py").read_text().splitlines()
    first = next(i for i, line in enumerate(lines, 1) if line.startswith("# --- tolerances"))
    last = next(i for i, line in enumerate(lines, 1) if line.startswith("# --- end of tolerances"))
    return first, last


class TestToleranceBlock:
    def test_no_small_float_literal_outside_the_block(self):
        first, last = tolerance_block()
        stray = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
                    continue
                # Up to 0.1: a measured cut such as PSI_TRACE_TOL is a
                # tolerance too, however large.
                if not 0.0 < abs(node.value) < 0.1:
                    continue
                if path.name == "numerics.py" and first < node.lineno < last:
                    continue
                stray.append("%s:%d: %r" % (path.name, node.lineno, node.value))
        assert stray == []

    def test_no_rounding_to_a_literal_number_of_digits(self):
        # round(x, 9) is a 1e-9 grid written as a digit count, which the
        # float-literal test above cannot see; quantize by a named tolerance.
        stray = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "round":
                    digits = node.args[1:2]
                elif isinstance(func, ast.Attribute) and func.attr in ("round", "around"):
                    # np.round(x, k), or the method x.round(k).
                    on_module = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
                    digits = node.args[1:2] if on_module else node.args[:1]
                else:
                    continue
                digits += [k.value for k in node.keywords if k.arg in ("ndigits", "decimals")]
                if any(isinstance(d, ast.Constant) for d in digits):
                    stray.append("%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)))
        assert stray == []

    def test_the_block_names_every_tolerance(self):
        first, last = tolerance_block()
        tree = ast.parse((SRC / "numerics.py").read_text())
        table = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and first < node.lineno < last
        }
        assert table == {
            "UNITARY_TOL": 1e-8,
            "ROUNDING_TOL": 1e-10,
            "DEFAULT_TOL": 1e-8,
            "LOCAL_TOL": 1e-9,
            "ZERO_TOL": 1e-12,
            "SPECTRUM_TOL": 1e-6,
            "OFF_DIAGONAL_TOL": 1e-13,
            "PSI_TRACE_TOL": 1e-2,
        }
        assert q2synth.synthesis.DEFAULT_TOL is nm.DEFAULT_TOL


def module_trees():
    """{file name: AST} of every module of the package."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def script_trees():
    """{path from the repository root: AST} of every test module and tool."""
    root = Path(__file__).resolve().parent.parent
    return {
        str(path.relative_to(root)): ast.parse(path.read_text())
        for folder in ("tests", "tools")
        for path in sorted((root / folder).glob("*.py"))
    }


def names_read(tree):
    """Every name a module reads: its loaded names, the attribute names it
    reads and the names it imports from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_defaults(trees):
    """Every defaulted parameter of a private function in ``trees`` ({file
    name: AST}) that no call in them sets, by position, by keyword or
    through * or **, as "file:line: function(parameter=...)"."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(getattr(node.func, "attr", getattr(node.func, "id", None)), []).append(node)
    dead = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not fn.name.startswith("_") or fn.name.startswith("__"):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            # A method called on an instance or class passes self or cls.
            bound = 1 if positional[:1] in (["self"], ["cls"]) else 0
            defaulted = positional[len(positional) - len(fn.args.defaults) :]
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for param in defaulted:
                index = positional.index(param) - bound if param in positional else None

                def sets(call):
                    if any(k.arg in (param, None) for k in call.keywords):
                        return True
                    if index is None:
                        return False
                    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)

                if not any(sets(call) for call in calls.get(fn.name, [])):
                    dead.append("%s:%d: %s(%s=...)" % (name, fn.lineno, fn.name, param))
    return dead


class TestNoDeadNames:
    """What a deletion leaves behind: an import nothing uses, in src/, the
    tests or the tools, or a private module-level name nothing else in src/
    reads.  Tests do not count as readers."""

    def test_every_import_is_used(self):
        unused = []
        for name, tree in {**module_trees(), **script_trees()}.items():
            used = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            }
            # A re-export is used by its entry in __all__.
            used |= {
                elt.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = (alias.asname or alias.name).split(".")[0]
                        if bound not in used:
                            unused.append("%s:%d: %s" % (name, node.lineno, bound))
        assert unused == []

    def test_every_import_is_at_module_level(self):
        # An import in a function or class body hides a dependency of the
        # module and runs again on every call.
        nested = set()
        for name, tree in module_trees().items():
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                    continue
                for node in ast.walk(scope):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.add("%s:%d: %s" % (name, node.lineno, ast.unparse(node)))
        assert sorted(nested) == []

    def test_every_private_module_name_is_read_in_src(self):
        trees = module_trees()
        read = set().union(*map(names_read, trees.values()))
        unread = []
        for name, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                for private in defined:
                    if private.startswith("_") and not private.startswith("__") and private not in read:
                        unread.append("%s:%d: %s" % (name, node.lineno, private))
        assert unread == []

    def test_every_default_of_a_private_function_is_set_in_src(self):
        # A default that no caller in src/ overrides is a constant in
        # disguise; tests do not count as callers.
        assert dead_defaults(module_trees()) == []

    def test_the_default_check_finds_a_knob_nobody_turns(self):
        source = (
            "def _f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
            "class K:\n    def _m(self, x=0, y=0):\n        pass\n"
            "_f(0, 1)\n_f(0, e=5)\nK()._m(1)\n_f(*[0, 1, 2])\n"
        )
        found = dead_defaults({"m.py": ast.parse(source)})
        assert found == ["m.py:1: _f(d=...)", "m.py:4: _m(y=...)"]
        assert dead_defaults({"m.py": ast.parse(source.replace("_f(*[0, 1, 2])\n", ""))}) == [
            "m.py:1: _f(c=...)",
            "m.py:1: _f(d=...)",
            "m.py:4: _m(y=...)",
        ]


class TestSmallProducts:
    def test_no_matmul_operator_in_a_function_body(self):
        # The 4x4 and 2x2 products of the synthesis and cost paths run by
        # ndarray.dot: on NumPy 2.4.6 (shared 2-core x86-64 VM) A @ B takes
        # 2.5-3.3 us on 4x4 complex arrays and A.dot(B) 1.6-2.3 us, with the
        # same bits.  Module-level constants, built once, may keep @.
        found = []
        trees = module_trees()
        for name in ("numerics.py", "invariants.py", "circuit.py", "synthesis.py"):
            for scope in ast.walk(trees[name]):
                if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                for node in ast.walk(scope):
                    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                        found.append("%s:%d: %s" % (name, node.lineno, ast.unparse(node)))
        assert sorted(set(found)) == [], "use ndarray.dot: @ costs about 1 us more per 4x4 product"


class TestReproducibleTests:
    def test_no_test_calls_the_builtin_hash(self):
        # str and bytes hashes are salted per process, so a seed or a choice
        # read from hash() changes on every run and a failure cannot be rerun.
        found = []
        for path in sorted(Path(__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hash":
                    found.append("%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)))
        assert found == []


def off_unitary(m, r):
    """m (unitary) scaled so that ||m^dag m - I||_F = r; for det m = 1 the
    determinant then misses 1 by about r too."""
    return m * math.sqrt(1.0 + r / math.sqrt(m.shape[0]))


def matrix_text(m):
    return "\n".join(" ".join("%.17g %.17g" % (z.real, z.imag) for z in row) for row in m)


def _haar4(rng):
    return nm.haar_unitary(4, rng)


def _su4(rng):
    return su4_normalize(nm.haar_unitary(4, rng))[0]


def _su2(rng):
    u = nm.haar_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


def _symmetric_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q.T @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4))) @ q


#: Every public entry point that checks a unitary input: (name in its
#: error message, the call, a valid input from a seeded generator, the
#: error it raises).
ENTRY_POINTS = [
    ("synthesize", synthesize, _haar4, NotUnitary),
    ("enumerate_circuits", lambda m: enumerate_circuits(m, limit=1), _haar4, NotUnitary),
    ("cnot_cost", cnot_cost, _haar4, NotUnitary),
    ("gamma", gamma, _haar4, NotUnitary),
    ("invariant_data", invariant_data, _haar4, NotUnitary),
    ("same_left_coset", lambda m: same_left_coset(m, m), _su4, NotUnitary),
    ("same_double_coset", lambda m: same_double_coset(m, m), _su4, NotUnitary),
    ("core_params_cyz", core_params_cyz, _su4, NotUnitary),
    ("core_params_cxz", core_params_cxz, _su4, NotUnitary),
    ("match_local_factors", lambda m: match_local_factors(m, m), _su4, NotUnitary),
    ("su4_normalize", su4_normalize, _haar4, NotUnitary),
    ("tensor_factor", tensor_factor, lambda r: nm.kron(_su2(r), _su2(r)), NotUnitary),
    ("euler_decompose", lambda m: euler_decompose(m, Axis.Z, Axis.Y), _su2, NotUnitary),
    ("Generic1Q", lambda m: Generic1Q(0, m), _su2, NotUnitary),
    ("parse_matrix_text", lambda m: parse_matrix_text(matrix_text(m)), _haar4, NotUnitary),
    (
        "diagonalize_symmetric_unitary",
        nm.diagonalize_symmetric_unitary,
        _symmetric_unitary,
        NotSymmetricUnitary,
    ),
]

#: Every public call that takes a ``tol``: (name in its error message, the
#: call on an input and a tol).
TOL_CALLS = [
    ("synthesize", lambda m, tol: synthesize(m, tol=tol)),
    ("enumerate_circuits", lambda m, tol: enumerate_circuits(m, tol=tol)),
    ("cnot_cost", lambda m, tol: cnot_cost(m, tol=tol)),
    ("same_left_coset", lambda m, tol: same_left_coset(m, m, tol=tol)),
    ("same_double_coset", lambda m, tol: same_double_coset(m, m, tol=tol)),
]


class TestInputChecks:
    @pytest.mark.parametrize("name,call,make,error", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
    def test_boundary(self, name, call, make, error):
        # An input the check accepts is served, also by the entry points
        # that split it into one-qubit factors to LOCAL_TOL.
        m = make(np.random.default_rng(20))
        call(off_unitary(m, 0.9 * nm.UNITARY_TOL))
        with pytest.raises(error, match=r"^%s expects .* within tol=1e-08$" % name):
            call(off_unitary(m, 1.1 * nm.UNITARY_TOL))

    def test_every_entry_point_is_listed(self):
        # Each name that calls the helper in src/ is an entry point above.
        # synthesize and enumerate_circuits pass their names through the
        # shared candidate loop, synthesis._outcomes.
        callers = set()
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                index = {"require_unitary": 1, "_outcomes": 3}.get(name)
                if index is not None and isinstance(node.args[index], ast.Constant):
                    callers.add(node.args[index].value)
        assert callers == {e[0] for e in ENTRY_POINTS}

    @pytest.mark.parametrize("name,call", TOL_CALLS)
    def test_a_caller_tol_tightens_the_check_down_to_the_floor(self, name, call):
        m = _su4(np.random.default_rng(21))
        # A looser tol leaves the check at UNITARY_TOL.
        with pytest.raises(NotUnitary, match=r"^%s .*tol=1e-08$" % name):
            call(off_unitary(m, 1.1e-8), 1e-6)
        # A tighter one tightens it ...
        with pytest.raises(NotUnitary, match=r"^%s .*tol=1e-09$" % name):
            call(off_unitary(m, 1.1e-9), 1e-9)
        # ... but not below ROUNDING_TOL: an unreachable verification bound
        # fails verification, not the input check.
        with pytest.raises(NotUnitary, match=r"^%s .*tol=1e-10$" % name):
            call(off_unitary(m, 1.1e-10), 1e-18)
        try:
            call(off_unitary(m, 0.9e-10), 1e-18)
        except VerificationFailed:
            pass


    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12])
    @pytest.mark.parametrize("name,call", TOL_CALLS)
    def test_a_nan_or_negative_tol_is_refused(self, name, call, tol):
        # ``residual > nan`` is False, so a NaN tol would accept any circuit.
        m = _su4(np.random.default_rng(21))
        with pytest.raises(ValueError, match=r"^%s expects tol >= 0" % name):
            call(m, tol)

    @pytest.mark.parametrize(
        "name,call",
        [
            ("synthesize", synthesize),
            ("cnot_cost", cnot_cost),
            ("invariant_data", invariant_data),
            ("tensor_factor", tensor_factor),
        ],
    )
    @pytest.mark.parametrize("bad", ["abc", [[1.0, 2.0], [3.0]], [["x"] * 4] * 4])
    def test_entries_that_are_not_numbers_are_not_unitary(self, name, call, bad):
        # They raised a bare ValueError from complex().
        with pytest.raises(NotUnitary, match=r"^%s expects a 4x4 unitary matrix; numeric-entries check failed: " % name):
            call(bad)

    def test_a_wrong_shape_is_named(self):
        with pytest.raises(NotUnitary, match=r"; shape check failed: got shape \(3, 3\)$"):
            synthesize(np.eye(3))

    def test_non_finite_entries_are_named(self):
        m = np.eye(4, dtype=np.complex128)
        m[1, 2] = complex(math.nan, 0.0)
        m[3, 0] = math.inf
        with pytest.raises(NotUnitary, match=r"; finite-entries check failed: 2 of 16 entries are NaN or infinite$"):
            synthesize(m)

    def test_unitarity_is_named_with_its_residual(self):
        with pytest.raises(NotUnitary, match=r"; unitarity check failed: \|\|m\^dag m - I\|\|_F = 2, not within tol=1e-08$"):
            synthesize(np.sqrt(2.0) * np.eye(4))

    def test_the_determinant_is_named(self):
        # CNOT is unitary with det -1.
        with pytest.raises(NotUnitary, match=r"; determinant check failed: \|det m - 1\| = 2, not within tol=1e-08$"):
            core_params_cyz(nm.CNOT01)

    def test_symmetry_is_named(self):
        p = nm.CNOT10 @ nm.CNOT01
        with pytest.raises(NotSymmetricUnitary, match=r"; symmetry check failed: \|\|m - m\^T\|\|_F = 2\.45, not within tol=1e-08$"):
            nm.diagonalize_symmetric_unitary(p)


class TestOneCheckPerCall:
    """Each public call checks each input matrix once, itself; a public
    function calling another does not check again."""

    @staticmethod
    def record(monkeypatch):
        checks, unitary = [], []
        require, is_unitary = nm.require_unitary, nm.is_unitary

        def recording_require(m, caller, *args, **kwargs):
            checks.append(caller)
            return require(m, caller, *args, **kwargs)

        def counting_is_unitary(*args, **kwargs):
            unitary.append(None)
            return is_unitary(*args, **kwargs)

        monkeypatch.setattr(nm, "require_unitary", recording_require)
        monkeypatch.setattr(nm, "is_unitary", counting_is_unitary)
        return checks, unitary

    @pytest.mark.parametrize(
        "call,expected",
        [
            (lambda u, v: core_params_cyz(u), ["core_params_cyz"]),
            (lambda u, v: core_params_cxz(u), ["core_params_cxz"]),
            (lambda u, v: match_local_factors(u, v), ["match_local_factors"] * 2),
            (lambda u, v: invariant_data(u), ["invariant_data"]),
            (lambda u, v: cnot_cost(u), ["cnot_cost"]),
        ]
        + [(lambda u, v, lib=lib: synthesize(u, lib), ["synthesize"]) for lib in GateLibrary],
        ids=["core_params_cyz", "core_params_cxz", "match_local_factors", "invariant_data"]
        + ["cnot_cost"]
        + ["synthesize-%s" % lib.value for lib in GateLibrary],
    )
    def test_checks_per_call(self, call, expected, monkeypatch):
        checks, unitary = self.record(monkeypatch)
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = _su4(rng)
            v = nm.kron(_su2(rng), _su2(rng)) @ u @ nm.kron(_su2(rng), _su2(rng))
            del checks[:], unitary[:]
            call(u, v)
            assert checks == expected
            assert len(unitary) == len(expected)
