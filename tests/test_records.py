"""The immutable value records and the modules a request imports."""

import ast
import copy
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from aggclosure.closure import (
    ClosureArtifacts,
    FacetTuple,
    SampleScheme,
    SeparationResult,
)
from aggclosure.errors import UsageError
from aggclosure.knapsack import (
    COVERING,
    DEFAULT_CELL_BUDGET,
    PACKING,
    Aggregation,
    Instance,
    KnapsackRelaxation,
    build_relaxation,
)
from aggclosure.polyhedra import LE, LinearInequality, Polyhedron, orthant
from aggclosure.record import Record
from aggclosure.verify import FAIL, PASS, CheckReport

SRC = Path(__file__).resolve().parent.parent / "src"

INST = Instance(PACKING, ((2, 3),), (4,), instance_id="pack23")
IQ = LinearInequality((1, 2), 2, LE)
AGG = Aggregation(((Fraction(1, 2), Fraction(1, 2)),))
QUAD = orthant(2)
SCHEME = SampleScheme(grid_denominator=2)

# one keyword argument set per record class, every field given
FIELDS = {
    LinearInequality: dict(normal=(1, 2), rhs=2, sense=LE),
    Polyhedron: dict(
        dim=2,
        hrep=QUAD.hrep,
        generators=QUAD.generators,
        feasible=True,
        integral_flag=True,
        affine_dim=2,
    ),
    Aggregation: dict(weights=((1, 1),)),
    Instance: dict(sense=PACKING, A=((2, 3),), b=(4,), instance_id="pack23"),
    KnapsackRelaxation: dict(
        sense=PACKING,
        n=2,
        aggregated_rows=((2, 3),),
        aggregated_rhs=(4,),
    ),
    SampleScheme: dict(grid_denominator=8, k=2, budget=500),
    FacetTuple: dict(points=((0, 1), (2, 0)), source_lambda=AGG, source_facet=IQ),
    ClosureArtifacts: dict(
        instance=INST,
        sample=SCHEME,
        parts=(QUAD,),
        closure=QUAD,
        gamma=None,
        T_sample=(),
        S=(),
    ),
    SeparationResult: dict(
        inside=False, cut=IQ, violation=Fraction(1, 2), witness=AGG
    ),
    CheckReport: dict(
        check_name="sandwich",
        instance_id="pack23",
        status=FAIL,
        witness_point=(Fraction(1), Fraction(1)),
        witness_lambda=AGG,
        witness_inequality=IQ,
        timing_ms=3,
        note="n",
    ),
}
CLASSES = list(FIELDS)


def build(cls):
    return cls(**FIELDS[cls])


def test_every_record_class_covered():
    assert set(Record.__subclasses__()) == set(CLASSES) and len(CLASSES) == 10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_fields_read_back(self, cls):
        rec = build(cls)
        for name, value in FIELDS[cls].items():
            assert getattr(rec, name) == value

    def test_positional_equals_keyword(self, cls):
        assert cls(*FIELDS[cls].values()) == build(cls)

    def test_assignment_raises(self, cls):
        rec = build(cls)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert build(cls) == rec

    def test_equal_fields_equal_objects_and_hashes(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_changed_field_compares_unequal(self, cls):
        name = next(iter(FIELDS[cls]))
        other = build(cls)
        changed = {
            LinearInequality: (1, 3),
            Polyhedron: 3,
            Aggregation: ((2, 1),),
            Instance: COVERING,
            KnapsackRelaxation: COVERING,
            SampleScheme: 16,
            FacetTuple: ((1, 1), (2, 0)),
            ClosureArtifacts: Instance(PACKING, ((1, 1),), (4,)),
            SeparationResult: True,
            CheckReport: "gamma",
        }[cls]
        kwargs = dict(FIELDS[cls], **{name: changed})
        assert cls(**kwargs) != other

    def test_not_a_tuple(self, cls):
        rec = build(cls)
        values = tuple(FIELDS[cls].values())
        assert rec != values and values != rec
        with pytest.raises(TypeError):
            iter(rec)

    def test_repr_names_every_field(self, cls):
        text = repr(build(cls))
        inner = ", ".join(f"{k}={v!r}" for k, v in FIELDS[cls].items())
        assert text == f"{cls.__name__}({inner})"

    def test_copy_and_pickle_round_trip(self, cls):
        rec = build(cls)
        assert copy.copy(rec) == rec
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


class TestDefaults:
    def test_linear_inequality_repr(self):
        assert repr(IQ) == "LinearInequality(normal=(1, 2), rhs=2, sense='<=')"

    def test_instance(self):
        inst = Instance(PACKING, [[2, 3], [0, 0]], [4, 5])
        assert inst.instance_id == ""
        # zero rows are stripped and the matrix is stored as int tuples
        assert inst.A == ((2, 3),) and inst.b == (4,)

    def test_sample_scheme(self):
        s = SampleScheme()
        assert (s.grid_denominator, s.k, s.budget) == (4, 1, DEFAULT_CELL_BUDGET)
        assert SampleScheme.__slots__ == ("grid_denominator", "k", "budget")
        assert SampleScheme(k=2) == SampleScheme(4, 2, DEFAULT_CELL_BUDGET)
        with pytest.raises(UsageError):
            SampleScheme(grid_denominator=0)
        # refinement rounds are `separate`'s own; the third field is the budget
        with pytest.raises(UsageError, match="work budget"):
            SampleScheme(4, 1, 0)

    def test_facet_tuple(self):
        t = FacetTuple(((0, 1),))
        assert t.source_lambda is None and t.source_facet is None

    def test_separation_result(self):
        res = SeparationResult(inside=True)
        assert (res.cut, res.violation, res.witness) == (None, None, None)

    def test_check_report(self):
        rep = CheckReport("sandwich", "x", PASS)
        assert rep.witness_point is None and rep.witness_lambda is None
        assert rep.witness_inequality is None
        assert rep.timing_ms == 0 and rep.note == ""
        with pytest.raises(UsageError):
            CheckReport("sandwich", "x", FAIL)

    def test_linear_inequality_validates(self):
        with pytest.raises(ValueError):
            LinearInequality((2, 4), 2, LE)
        with pytest.raises(ValueError):
            LinearInequality((-1, 2), 2, LE)

    def test_relaxation_from_builder(self):
        rel = build_relaxation(INST, (1,))
        assert rel == KnapsackRelaxation(PACKING, 2, ((2, 3),), (4,))
        # the relaxation keeps no link to its instance or weights: equal
        # rows compare equal
        assert rel == build_relaxation(Instance(PACKING, ((2, 3), (4, 6)), (4, 8)), (1, 0))


def test_cli_import_loads_no_heavy_modules():
    # every request process imports aggclosure.cli; these modules would
    # add milliseconds to its start, tens of them for the first six
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import aggclosure.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "aggclosure.cli" in loaded
    heavy = {
        "dataclasses",
        "inspect",
        "json",
        "dis",
        "ast",
        "tokenize",
        "argparse",
        "gettext",
        "locale",
    }
    assert not heavy & loaded


def test_every_parameter_is_read():
    # a parameter the body never reads is passed along for nothing;
    # dunder protocol methods keep the signature their protocol fixes
    unread = []
    for path in sorted((SRC / "aggclosure").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
            ]
    assert unread == []


def test_every_import_is_used():
    # a name imported and never read is a dependency for nothing; a name
    # listed in `__all__` is read by the package's importers.  The
    # package, its tests and its demos are read
    dirs = (SRC / "aggclosure", SRC.parent / "tests", SRC.parent / "demos")
    paths = [path for d in dirs for path in sorted(d.glob("*.py"))]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def _names_read(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_is_used():
    # a top-level private function or class that nothing in the package
    # names is dead code; a helper's references to itself do not count
    read = Counter()
    own = {}
    for path in sorted((SRC / "aggclosure").glob("*.py")):
        tree = ast.parse(path.read_text())
        read += _names_read(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                own[f"{path.name} {node.name}"] = (node.name, _names_read(node)[node.name])
    dead = [where for where, (name, inside) in own.items() if read[name] == inside]
    assert dead == []


def test_every_private_default_is_passed():
    # a defaulted parameter of a private function that no call in the
    # package passes, by position or by keyword, always takes its default.
    # Calls are matched by name, a method's by attribute after ``self``;
    # a starred argument or ``**`` may pass anything
    paths = sorted((SRC / "aggclosure").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    positions: dict = {}
    keywords: dict = {}
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        count = len(call.args)
        if any(isinstance(a, ast.Starred) for a in call.args):
            count = float("inf")
        positions[name] = max(positions.get(name, 0), count)
        keywords.setdefault(name, set()).update(kw.arg for kw in call.keywords)
    unpassed = []
    for path, tree in zip(paths, trees):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            skip = 1 if params and params[0].arg in ("self", "cls") else 0
            # the position a call fills to pass each defaulted parameter
            defaulted = [
                (p, i - skip) for i, p in enumerate(params)
                if i >= len(params) - len(args.defaults)
            ]
            defaulted += [
                (p, float("inf"))
                for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            passed = keywords.get(name, set())
            unpassed += [
                f"{path.name}:{node.lineno} {name}({p.arg})"
                for p, index in defaulted
                if positions.get(name, 0) <= index and not passed & {p.arg, None}
            ]
    assert unpassed == []


def test_walkers_and_file_reads_have_their_one_caller():
    # one generating set per relaxation: the one lattice walk is read
    # through `knapsack._generators`, every instance file through
    # `cli._read_instance`, and every report file through
    # `cli._write_reports`.  A call counts for the top-level function
    # that holds it
    allowed = {
        "lattice_points": {"knapsack._generators"},
        "_segments": {"knapsack._generators", "knapsack.lattice_points"},
        "read_text": {"cli._read_instance"},
        "write_text": {"cli._write_reports"},
        "mkdir": {"cli._write_reports"},
    }
    calls = []
    for path in sorted((SRC / "aggclosure").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in allowed:
                        calls.append((name, where))
    assert {name for name, _ in calls} == set(allowed)
    assert [(name, where) for name, where in calls if where not in allowed[name]] == []


def _is_empty_container(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) in ("dict", "set")
        and not value.args
        and not value.keywords
    )


def test_no_module_level_empty_container():
    # a module-level name bound to an empty dict, list or set is a
    # hand-rolled memo; a result is cached by `functools.cache` on the
    # function that builds it, keyed by that function's arguments
    found = []
    for path in sorted((SRC / "aggclosure").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                found += [f"{path.name}:{node.lineno} {ast.unparse(t)}" for t in targets]
    assert found == []
