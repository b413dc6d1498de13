import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import squeezebath
from squeezebath.algebra import GeneratorSet, composite_generators
from squeezebath.bath import (
    BathPoint,
    BathSchedule,
    Constant,
    ExpDecay,
    Ramp,
    Sinusoid,
    _Record,
    bath_params,
)
from squeezebath.cli import RunConfig, resolve_config
from squeezebath.integrate import SubstepPlan, plan_substeps, uniform_grid
from squeezebath.spectral import (
    EigenMode,
    TransformationBranch,
    eigen_modes,
    solve_transformation_conditions,
)
from squeezebath.verify import CheckResult


def _fields(record):
    return dict(zip(record._fields, record._values()))


_N, _M = bath_params(0.6, 0.3)
_BRANCH = solve_transformation_conditions(_N, 0.3)[0]

# sample fields of every record class, in field order
_SAMPLES = {
    Constant: {"value": 0.7},
    ExpDecay: {"amplitude": 0.1, "rate": 0.1},
    Ramp: {"offset": 1.0, "slope": -0.5},
    Sinusoid: {"offset": 0.5, "amplitude": 0.2, "omega": 2.0, "phase": 0.3},
    BathPoint: {"gamma": 1.0, "n_param": 0.5, "m_param": 0.5j},
    BathSchedule: {"gamma": Constant(1.0), "r": Ramp(0.1, 0.1), "theta": Constant(0.2),
                   "nbar": 0.7},
    GeneratorSet: dict(composite_generators().items()),
    SubstepPlan: _fields(plan_substeps(uniform_grid(1.0, 0.5), 0.3)),
    TransformationBranch: _fields(_BRANCH),
    EigenMode: _fields(eigen_modes(1.0, _N, _M, _BRANCH)[1]),
    CheckResult: {"name": "steady-state", "status": "PASS", "measured": 1e-16,
                  "tolerance": 1e-14, "detail": "4 points"},
    RunConfig: _fields(resolve_config({}, "out")),
}


def _record_classes():
    # every _Record subclass with fields defined in a module of the package
    found = set()
    for info in pkgutil.iter_modules(squeezebath.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("squeezebath." + info.name)
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, _Record)
                  and obj.__module__ == module.__name__ and obj._fields}
    return found


def _assert_same(a, b):
    # fields equal one by one, arrays by value and dtype
    assert type(a) is type(b)
    for x, y in zip(a._values(), b._values()):
        assert type(x) is type(y)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


def test_the_table_covers_every_record_class():
    assert _record_classes() == set(_SAMPLES)
    assert all(tuple(fields) == cls._fields for cls, fields in _SAMPLES.items())


@pytest.mark.parametrize("cls", sorted(_SAMPLES, key=lambda cls: cls.__name__))
def test_records_bind_their_fields_by_position_name_and_default(cls):
    fields = _SAMPLES[cls]
    values = tuple(fields.values())
    record = cls(*values)
    assert all(getattr(record, key) is value for key, value in fields.items())
    _assert_same(record, cls(**fields))
    _assert_same(record, cls(*values[:1], **dict(list(fields.items())[1:])))
    # the trailing fields with defaults left out take them
    required = [key for key in cls._fields if key not in cls._defaults]
    assert list(cls._fields[:len(required)]) == required
    bare = cls(*values[:len(required)])
    for key in cls._fields[len(required):]:
        assert getattr(bare, key) == cls._defaults[key]
    _assert_same(copy.copy(record), record)
    _assert_same(pickle.loads(pickle.dumps(record)), record)
    name = cls.__name__
    refused = [
        (lambda: cls(*values[:len(required) - 1]),
         r"^%s is missing field %r$" % (name, required[-1])),
        (lambda: cls(**{k: v for k, v in fields.items() if k != required[0]}),
         r"^%s is missing field %r$" % (name, required[0])),
        (lambda: cls(*values, no_such_field=0.0), r"^%s has no field 'no_such_field'$" % name),
        (lambda: cls(*values, **{required[0]: values[0]}),
         r"^%s got field %r twice$" % (name, required[0])),
        (lambda: cls(*values, 0.0),
         r"^%s takes %d fields, got %d$" % (name, len(values), len(values) + 1)),
    ]
    for make, message in refused:
        with pytest.raises(TypeError, match=message):
            make()
