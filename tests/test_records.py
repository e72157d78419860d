"""The package's record classes as a caller sees them: each constructor's
parameters by position and by keyword with their defaults, the frozen
classes' refusal of assignment, value equality and hashing where a class
has them, copies and the reprs of the exported value classes."""

import ast
import copy
import math
import re
from pathlib import Path

import numpy as np
import pytest

import hemiflow
from hemiflow.bubbles import BubbleParam, ChartedBubble, PhiApprox
from hemiflow.census import CensusEntry, ExistenceVerdict, LevelBand, enumerate_census
from hemiflow.config import FlowParams, RunConfig
from hemiflow.constants import ConstantsTable, compute_constants
from hemiflow.errors import ConfigError, InvalidConfiguration, NonFiniteBar
from hemiflow.fields import ScalarField
from hemiflow.flow import (IndexDiagnostics, RegionLabel, Trajectory, TrajectoryPoint,
                           Velocity)
from hemiflow.geometry import BoundarySpherePoint, HalfSpacePoint, RotatedChart, SpherePoint
from hemiflow.intervals import Bar
from hemiflow.landscape import AssumptionReport, CriticalPointRecord, find_critical_points
from hemiflow.model import Assembly, BubbleFrame, Configuration, GradientComponents
from hemiflow.oracles import InteriorEnergyOracle
from hemiflow.record import FrozenRecord, Record

E0 = np.eye(6)[0]
UP = np.array([0.0, 0.0, 0.0, 0.0, 0.6, 0.8])

BUBBLE = BubbleParam(BoundarySpherePoint(E0), 80.0)

# (class, constructor parameters in order, arguments that must be real
# values, the defaults of the trailing parameters); every other argument is
# a fresh object, which the instance must keep as given
CASES = [
    (SpherePoint, "coords", {"coords": UP}, {}),
    (BoundarySpherePoint, "coords", {"coords": E0}, {}),
    (HalfSpacePoint, "coords", {"coords": np.array([0.5, 0.0, 0.25, 0.0, 1.0])}, {}),
    (RotatedChart, "rotation", {}, {}),
    (BubbleParam, "a lam", {"lam": 80.0}, {}),
    (ChartedBubble, "param chart center rate height a_chart", {}, {}),
    (PhiApprox, "charted budget", {}, {}),
    (Bar, "center halfwidth", {"center": 1.5, "halfwidth": 0.25}, {"halfwidth": 0.0}),
    (Configuration, "alphas bubbles q p eps_scale",
     {"alphas": (1.0,), "bubbles": (BUBBLE,), "q": 1, "p": 0, "eps_scale": 0.05},
     {"eps_scale": 0.1}),
    (BubbleFrame, "boundary alpha param anchor rate height k_val grad_sphere grad_norm "
                  "grad_k1 grad_k1_norm lam_dist kt_val g_n h_nn kt_lap h_self dl_dloglam "
                  "dh_dloglam move_g move_w move_v move_l", {}, {}),
    (Assembly, "frames n_qty num den gamma j_center rel_bar eps_mat eps_sums eps_dloglam "
               "eps_da w_mat hmut_mat dist_mat interacting vbar budgets imbalances terms "
               "pair_terms pair_bars sep_factor grads",
     {"j_center": 2.0, "rel_bar": 0.5}, {"grads": None}),
    (GradientComponents, "alpha_pairings lam_pairings a_pairings", {}, {}),
    (FlowParams, "M0 M2 M4 eta eps max_qp", {},
     {"M0": 1.0e4, "M2": 10.0, "M4": 1.0e3, "eta": 0.1, "eps": 0.1, "max_qp": 2}),
    (RunConfig, "n field_spec quadrature_tol seed mass_max flow output_dir", {"n": 5},
     {"quadrature_tol": 1e-8, "seed": 20240, "mass_max": 4, "flow": FlowParams.for_mass(2, 5),
      "output_dir": "out"}),
    (IndexDiagnostics, "mu gamma_lambda gamma_alpha gamma_a gamma_h", {}, {}),
    (RegionLabel, "tag weights per_index nearest clusters tower_set mu_ratio", {}, {}),
    (Velocity, "alpha_dot a_dot loglam_dot", {}, {}),
    (TrajectoryPoint, "t cfg label_tag j_value mus", {}, {}),
    (Trajectory, "points reason detail", {}, {"detail": ""}),
    (LevelBand, "mass lo hi", {}, {}),
    (CensusEntry, "boundary_points interior_points level index", {}, {}),
    (ExistenceVerdict, "theorem hypotheses conclusion", {}, {}),
    (InteriorEnergyOracle, "norm_sq curvature_integral j_value uncertainty", {}, {}),
    (CriticalPointRecord, "location kind morse_index value laplacian normal_derivative "
                          "classification hessian_eigenvalues", {}, {"hessian_eigenvalues": ()}),
    (AssumptionReport, "h1 h2 h3 h3_branches violations", {}, {}),
    (ConstantsTable, "n values errors tol version", {"n": 5, "tol": 1e-8},
     {"version": "constants-v1-n5-tol1e-08"}),
]
IDS = [case[0].__name__ for case in CASES]
FIELDS = {case[0]: case[1] for case in CASES}

FROZEN = {SpherePoint, BoundarySpherePoint, HalfSpacePoint, RotatedChart, BubbleParam,
          ChartedBubble, PhiApprox, Bar, Configuration, GradientComponents, FlowParams,
          LevelBand, CensusEntry, ScalarField, CriticalPointRecord, ConstantsTable}


def _arguments(names, real):
    return [real.get(name, object()) for name in names.split()]


def _same(got, want):
    return got is want or (isinstance(want, np.ndarray) and np.array_equal(got, want)) \
        or got == want


@pytest.mark.parametrize("cls, names, real, defaults", CASES, ids=IDS)
def test_constructor_by_position_and_by_keyword(cls, names, real, defaults):
    names = names.split()
    args = _arguments(" ".join(names), real)
    for obj in (cls(*args), cls(**dict(zip(names, args)))):
        assert type(obj) is cls
        assert all(_same(getattr(obj, name), arg) for name, arg in zip(names, args))
    with pytest.raises(TypeError):
        cls(*args, object())
    with pytest.raises(TypeError):
        cls(**dict(zip(names, args)), no_such_field=object())
    required = len(names) - len(defaults)
    assert names[required:] == list(defaults)
    fewest = cls(*args[:required])
    assert all(_same(getattr(fewest, name), want) for name, want in defaults.items())
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])


def test_scalar_field_constructor():
    by_position = ScalarField(5, 1.0, [("x1", 0.05), ("x2*x3", 0.02)])
    by_keyword = ScalarField(n=5, kappa0=1.0, terms=[("x1", 0.05), ("x2*x3", 0.02)])
    assert by_position == by_keyword
    assert by_position.linear[0] == 0.05 and by_position.quadratic[1, 2] == 0.01
    plain = ScalarField(5, 1.0)
    assert (plain.n, plain.kappa0) == (5, 1.0)
    assert not plain.linear.any() and not plain.quadratic.any()


def test_constructor_checks_still_run():
    with pytest.raises(ValueError):
        Bar(1.0, -0.5)
    with pytest.raises(ValueError):
        SpherePoint(np.array([0.0, 0.0, 0.0, 0.0, 0.6, -0.8]))
    with pytest.raises(ValueError):
        BoundarySpherePoint(UP)
    with pytest.raises(ValueError):
        HalfSpacePoint(np.array([0.5, -1.0]))
    with pytest.raises(InvalidConfiguration):
        BubbleParam(BUBBLE.a, 0.5)
    with pytest.raises(InvalidConfiguration):
        Configuration((1.0,), (BUBBLE,), 1, 0, 0.001)
    with pytest.raises(NonFiniteBar):
        Assembly(*_arguments(FIELDS[Assembly], {"j_center": math.nan, "rel_bar": 0.5}))
    with pytest.raises(ConfigError):
        ScalarField(4, 1.0)


@pytest.mark.parametrize("cls, names, real, defaults", CASES, ids=IDS)
def test_frozen_classes_refuse_assignment(cls, names, real, defaults):
    obj = cls(*_arguments(names, real))
    name = names.split()[0]
    value = getattr(obj, name)
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(obj, name, object())
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    else:
        replacement = object()
        setattr(obj, name, replacement)
        assert getattr(obj, name) is replacement


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hemiflow."):
            yield sub
        yield from _record_classes(sub)


def test_cases_cover_every_record_class():
    assert set(_record_classes()) - {FrozenRecord} == set(FIELDS) | {ScalarField}


@pytest.mark.parametrize("obj", [case[0](*_arguments(case[1], case[2])) for case in CASES]
                         + [ScalarField(5, 1.0, [("x1", 0.05), ("x2*x6", 0.02)])],
                         ids=IDS + ["ScalarField"])
def test_replace_without_changes_is_equal_or_refused(obj):
    try:
        twin = obj.replace()
    except TypeError as exc:
        assert type(obj) is ScalarField
        assert "ScalarField(n, kappa0, terms)" in str(exc) and "to_config()" in str(exc)
    else:
        assert type(twin) is type(obj) and twin is not obj and twin == obj


def test_frozen_scalar_field_refuses_assignment():
    K = ScalarField(5, 1.0, [("x1", 0.05)])
    with pytest.raises(AttributeError):
        K.kappa0 = 2.0
    assert K.kappa0 == 1.0


@pytest.mark.parametrize("cls, names, real, defaults",
                         [case for case in CASES if case[0] not in FROZEN],
                         ids=[name for case, name in zip(CASES, IDS) if case[0] not in FROZEN])
def test_mutable_classes_are_unhashable(cls, names, real, defaults):
    with pytest.raises(TypeError):
        hash(cls(*_arguments(names, real)))


def _equal_twins(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_value_equality_and_hashing():
    _equal_twins(Bar(1.0, 0.5), Bar(1.0, 0.5))
    _equal_twins(Bar(1.0), Bar(1.0, 0.0))
    assert Bar(1.0, 0.5) != Bar(1.0, 0.25)
    assert Bar(1.0, 0.5) != (1.0, 0.5)
    _equal_twins(BUBBLE, BubbleParam(BoundarySpherePoint(E0.copy()), 80.0))
    assert BUBBLE != BubbleParam(BUBBLE.a, 81.0)
    _equal_twins(FlowParams(), FlowParams(1.0e4, 10.0, 1.0e3, 0.1, 0.1, 2))
    assert FlowParams(max_qp=3) != FlowParams()
    _equal_twins(LevelBand(1, 0.5, 0.7), LevelBand(1, 0.5, 0.7))
    assert LevelBand(1, 0.5, 0.7) != LevelBand(2, 0.5, 0.7)


def test_configuration_compares_its_constructor_fields():
    cfg = Configuration((1.0,), (BUBBLE,), 1, 0)
    twin = Configuration((1,), (BubbleParam(BoundarySpherePoint(E0.copy()), 80.0),), 1, 0, 0.1)
    twin._memo["key"] = object()
    _equal_twins(cfg, twin)
    assert cfg.eps_mat is not twin.eps_mat
    _equal_twins(cfg, cfg.replace())
    assert cfg != Configuration((1.0,), (BUBBLE,), 1, 0, 0.05)
    assert cfg != Configuration((2.0,), (BUBBLE,), 1, 0)


@pytest.fixture(scope="module")
def linear_field():
    K = ScalarField(5, 1.0, [("x1", 0.05), ("x6", 0.03)])
    return K, find_critical_points(K)


def test_critical_point_record_twins(linear_field):
    _, records = linear_field
    twins = [r.replace() for r in records]
    for r, twin in zip(records, twins):
        _equal_twins(r, twin)
    assert len(set(records) | set(twins)) == len(records)
    index = {r: k for k, r in enumerate(records)}
    assert [index[twin] for twin in twins] == list(range(len(records)))
    other = records[0].replace(value=records[0].value + 1.0)
    assert other != records[0] and other not in index


def test_census_entry_equality(linear_field):
    K, records = linear_field
    entries = enumerate_census(records, 3, compute_constants(5).s_n, 5)
    assert entries
    for e in entries:
        _equal_twins(e, CensusEntry(e.boundary_points, e.interior_points, e.level, e.index))
    assert entries[0] != CensusEntry(entries[0].boundary_points, entries[0].interior_points,
                                     entries[0].level, entries[0].index + 1)


def test_constants_table_equality():
    table = compute_constants(5)
    again = ConstantsTable.from_json(table.to_json())
    assert again is not table and again == table
    assert table != compute_constants(5, 1e-6)
    with pytest.raises(TypeError):
        hash(table)  # its values and errors are dicts


def test_scalar_field_copy(linear_field):
    K, records = linear_field
    twin = copy.copy(K)
    assert twin is not K and twin == K and hash(twin) == hash(K)
    assert find_critical_points(twin) == records


def test_reprs_name_the_fields():
    assert repr(Bar(1.5, 0.25)) == "Bar(center=1.5, halfwidth=0.25)"
    assert repr(BUBBLE) == ("BubbleParam(a=BoundarySpherePoint(coords=array([1., 0., 0., 0., "
                            "0., 0.])), lam=80.0)")
    assert repr(FlowParams()) == ("FlowParams(M0=10000.0, M2=10.0, M4=1000.0, eta=0.1, "
                                  "eps=0.1, max_qp=2)")
    assert repr(LevelBand(1, 0.5, 0.75)) == "LevelBand(mass=1, lo=0.5, hi=0.75)"
    assert repr(Configuration((1.0,), (BUBBLE,), 1, 0)) == (
        f"Configuration(alphas=(1.0,), bubbles=({BUBBLE!r},), q=1, p=0, eps_scale=0.1)")
    assert repr(Trajectory([], "t_max")) == "Trajectory(points=[], reason='t_max', detail='')"
    assert repr(HalfSpacePoint(np.array([0.5, 1.0]))) == \
        "HalfSpacePoint(coords=array([0.5, 1. ]))"
    assert repr(SpherePoint(UP)) == "SpherePoint(coords=array([0. , 0. , 0. , 0. , 0.6, 0.8]))"


@pytest.mark.parametrize("cls, fields", [
    (CriticalPointRecord, FIELDS[CriticalPointRecord]), (CensusEntry, FIELDS[CensusEntry]),
    (ExistenceVerdict, FIELDS[ExistenceVerdict]), (ConstantsTable, FIELDS[ConstantsTable]),
    (ScalarField, "n kappa0 linear quadratic"),
])
def test_repr_names_each_field_in_order(cls, fields, linear_field):
    K, records = linear_field
    obj = {CriticalPointRecord: records[0],
           CensusEntry: CensusEntry((records[0],), (), 1.25, 2),
           ExistenceVerdict: ExistenceVerdict("T1_1", {}, "inconclusive"),
           ConstantsTable: compute_constants(5), ScalarField: K}[cls]
    text = repr(obj)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    pos = len(cls.__name__)
    for name in fields.split():
        match = re.compile(rf"[( ]{name}=").search(text, pos)
        assert match, name
        pos = match.end()


def test_no_module_imports_dataclasses():
    # dataclasses compiles each class's methods when its module loads, which
    # every CLI process would pay for
    importers = []
    for path in sorted(Path(hemiflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
