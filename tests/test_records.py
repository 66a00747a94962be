"""The immutable value records and the modules a request imports."""

import copy
import pickle
import subprocess
import sys
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
AGG = Aggregation(((Fraction(1, 2), Fraction(1, 2)),), normalized=True)
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
    Aggregation: dict(weights=((1, 1),), normalized=False),
    Instance: dict(sense=PACKING, A=((2, 3),), b=(4,), instance_id="pack23"),
    KnapsackRelaxation: dict(
        parent=INST,
        weights=Aggregation(((1,),)),
        sense=PACKING,
        n=2,
        aggregated_rows=((2, 3),),
        aggregated_rhs=(4,),
    ),
    SampleScheme: dict(grid_denominator=8, k=2, refinement_rounds=0),
    FacetTuple: dict(points=((0, 1), (2, 0)), source_lambda=AGG, source_facet=IQ),
    ClosureArtifacts: dict(
        instance=INST,
        sample=SCHEME,
        L=QUAD,
        K=QUAD,
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
            KnapsackRelaxation: None,
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

    def test_aggregation(self):
        assert Aggregation(((1, 1),)).normalized is False

    def test_instance(self):
        inst = Instance(PACKING, [[2, 3], [0, 0]], [4, 5])
        assert inst.instance_id == ""
        # zero rows are stripped and the matrix is stored as int tuples
        assert inst.A == ((2, 3),) and inst.b == (4,)

    def test_sample_scheme(self):
        s = SampleScheme()
        assert (s.grid_denominator, s.k, s.refinement_rounds) == (4, 1, 1)
        assert SampleScheme(k=2) == SampleScheme(4, 2, 1)
        with pytest.raises(UsageError):
            SampleScheme(grid_denominator=0)

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
        assert rel == KnapsackRelaxation(
            INST, Aggregation(((1,),)), PACKING, 2, ((2, 3),), (4,)
        )


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
