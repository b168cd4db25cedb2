"""The record contract of PotentialSpec, Pole and ObservablesRecord.

Each is a frozen dataclass with its own ``__init__``; these tests pin the
dataclass semantics that init must keep (signature, immutability, replace,
asdict, pickle, copy) and the InvalidInput message of every argument check.
"""

import argparse
import copy
import dataclasses
import inspect
import math
import pickle

import pytest

import deltashell.cli as cli
from deltashell import (
    InvalidInput,
    ObservablesRecord,
    Pole,
    PoleKind,
    PotentialSpec,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    observables_record,
    table_records,
)


def _records():
    barrier, well, shallow = (PotentialSpec(lam=lam) for lam in (10.0, -10.0, -0.5))
    return [
        barrier, shallow,
        find_resonance(barrier, 2), find_anti_resonance(barrier, 2),
        find_bound_state(well), find_virtual_state(shallow),
        *table_records(shallow, 2), table_records(well, 1)[0],
    ]


RECORDS = _records()
IDS = [f"{type(r).__name__}-{i}" for i, r in enumerate(RECORDS)]


@pytest.mark.parametrize("cls", [PotentialSpec, Pole, ObservablesRecord])
def test_init_parameters_are_the_fields(cls):
    assert "__init__" in vars(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    missing = dataclasses.MISSING, inspect.Parameter.empty
    assert [missing[1] if f.default is missing[0] else f.default for f in fields] == [
        p.default for p in params
    ]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_frozen(record):
    for field in dataclasses.fields(record):
        before = getattr(record, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field.name)
        assert getattr(record, field.name) is before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_replace_asdict_pickle_and_copy_round_trip(record):
    cls = type(record)
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    # asdict recurses into a table row's pole, which it gives as the pole's own asdict
    assert dataclasses.asdict(record) == {
        name: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
        for name, v in values.items()
    }
    clones = [
        dataclasses.replace(record),
        cls(**values),
        cls(*values.values()),
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ]
    for clone in clones:
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        assert dataclasses.astuple(clone) == dataclasses.astuple(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, dataclasses.fields(cls)[0].name, None)


def test_a_table_row_holds_its_pole():
    # the row keeps the pole it was formed from, not copies of the pole's fields
    assert [f.name for f in dataclasses.fields(ObservablesRecord)] == [
        "pole", "gamma_bar", "gamma", "gamma_bar_sharp", "gamma_sharp", "c_value"]
    well, shallow = PotentialSpec(lam=-10.0), PotentialSpec(lam=-0.5)
    for spec, pole in ((well, find_bound_state(well)), (shallow, find_virtual_state(shallow)),
                       (well, find_resonance(well, 2))):
        assert observables_record(spec, pole).pole is pole


def test_replace_makes_a_new_valid_record():
    spec = PotentialSpec(lam=10.0)
    moved = dataclasses.replace(spec, lam=-10.0)
    assert moved.lam == -10.0 and moved._resonances == {}
    pole = find_resonance(spec, 1)
    assert dataclasses.replace(pole, index=7).index == 7
    row = table_records(spec, 1)[0]
    assert dataclasses.replace(row, gamma=1.5).gamma == 1.5


SPEC_ERRORS = [
    ({"lam": 0.0}, "potential strength must be finite and nonzero"),
    ({"lam": math.nan}, "potential strength must be finite and nonzero"),
    ({"lam": -math.inf}, "potential strength must be finite and nonzero"),
    ({"lam": 700.5}, "strength magnitude beyond 700 overflows lambda*exp(lambda)"),
    ({"lam": -701.0}, "strength magnitude beyond 700 overflows lambda*exp(lambda)"),
]
# The radius and the units are the command line's, checked after lam.
RADIUS_ERRORS = [
    ({"lam": 1.0, "a": 0.0}, "shell radius must be positive and finite"),
    ({"lam": 1.0, "a": -1.0}, "shell radius must be positive and finite"),
    ({"lam": 1.0, "a": math.inf}, "shell radius must be positive and finite"),
    ({"lam": 1.0, "a": math.nan}, "shell radius must be positive and finite"),
]


def test_spec_is_strength_alone():
    # the radius and the units are the command line's output scales: the
    # library works in units of the radius and in reduced units
    assert [f.name for f in dataclasses.fields(PotentialSpec)] == ["lam"]


UNIT_ERRORS = [
    ({"lam": 1.0, "unit_system": "physical", "hbar": 1e-160},
     "energy scale hbar^2/2m = 5e-321 is subnormal and loses digits"),
    ({"lam": 1.0, "unit_system": "physical", "mass": 0.0},
     "physical units need finite positive mass and hbar"),
    ({"lam": 1.0, "unit_system": "physical", "mass": math.nan},
     "physical units need finite positive mass and hbar"),
    ({"lam": 1.0, "unit_system": "physical", "hbar": math.inf},
     "physical units need finite positive mass and hbar"),
    ({"lam": 1.0, "unit_system": "physical", "hbar": -1.0},
     "physical units need finite positive mass and hbar"),
    ({"lam": 1.0, "unit_system": "physical", "mass": 1e-320},
     "energy scale hbar^2/2m = inf is not finite and nonzero"),
    ({"lam": 1.0, "unit_system": "physical", "hbar": 1e200},
     "energy scale hbar^2/2m = inf is not finite and nonzero"),
    ({"lam": 1.0, "unit_system": "physical", "mass": 1e300, "hbar": 1e-300},
     "energy scale hbar^2/2m = 0.0 is not finite and nonzero"),
]


def _command_line(lam, a=1.0, unit_system="reduced", mass=None, hbar=None):
    return argparse.Namespace(command="table", lam=lam, radius=a, units=unit_system,
                              mass=mass, hbar=hbar)


@pytest.mark.parametrize("kwargs, message", SPEC_ERRORS + RADIUS_ERRORS + UNIT_ERRORS)
def test_spec_checks_raise_invalid_input(kwargs, message):
    with pytest.raises(InvalidInput) as info:
        cli._spec_from_args(_command_line(**kwargs))
    assert str(info.value) == message
    if kwargs.keys() == {"lam"}:
        with pytest.raises(InvalidInput) as info:
            PotentialSpec(**kwargs)
        assert str(info.value) == message


def test_spec_checks_hold_through_replace():
    spec = PotentialSpec(lam=10.0)
    for kwargs, message in SPEC_ERRORS:
        with pytest.raises(InvalidInput) as info:
            dataclasses.replace(spec, **kwargs)
        assert str(info.value) == message


POLE_ERRORS = [
    ((PoleKind.RESONANCE, -1, 1, complex(-1.0, -0.5), 0j),
     "resonance pole must lie in the fourth quadrant"),
    ((PoleKind.RESONANCE, -1, 1, complex(1.0, 0.5), 0j),
     "resonance pole must lie in the fourth quadrant"),
    ((PoleKind.RESONANCE, -1, 1, complex(1.0, 0.0), 0j),
     "resonance pole must lie in the fourth quadrant"),
    ((PoleKind.ANTI_RESONANCE, 1, 1, complex(1.0, -0.5), 0j),
     "anti-resonance pole must lie in the third quadrant"),
    ((PoleKind.ANTI_RESONANCE, 1, 1, complex(-1.0, 0.5), 0j),
     "anti-resonance pole must lie in the third quadrant"),
    ((PoleKind.BOUND, 0, 0, complex(0.1, 1.0), complex(-1.0, 0.0)),
     "bound pole must sit on the imaginary k-axis"),
    ((PoleKind.BOUND, 0, 0, complex(0.0, 1.0), complex(-1.0, 1e-300)),
     "bound pole must sit on the imaginary k-axis"),
    ((PoleKind.VIRTUAL_STATE, -1, 0, complex(-1e-300, -1.0), complex(-1.0, 0.0)),
     "virtual_state pole must sit on the imaginary k-axis"),
    ((PoleKind.VIRTUAL_STATE, -1, 0, complex(0.0, -1.0), complex(-1.0, -2.0)),
     "virtual_state pole must sit on the imaginary k-axis"),
]


@pytest.mark.parametrize("args, message", POLE_ERRORS)
def test_pole_checks_raise_invalid_input(args, message):
    with pytest.raises(InvalidInput) as info:
        Pole(*args)
    assert str(info.value) == message
    names = [f.name for f in dataclasses.fields(Pole)]
    with pytest.raises(InvalidInput) as info:
        Pole(**dict(zip(names, args)))
    assert str(info.value) == message


def test_pole_checks_hold_through_replace():
    res = find_resonance(PotentialSpec(lam=10.0), 1)
    with pytest.raises(InvalidInput, match="fourth quadrant"):
        dataclasses.replace(res, k=-res.k)
    anti = find_anti_resonance(PotentialSpec(lam=10.0), 1)
    with pytest.raises(InvalidInput, match="third quadrant"):
        dataclasses.replace(anti, k=-anti.k)
    bound = find_bound_state(PotentialSpec(lam=-10.0))
    with pytest.raises(InvalidInput, match="imaginary k-axis"):
        dataclasses.replace(bound, z=complex(bound.z.real, 1.0))
