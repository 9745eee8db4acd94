"""The value classes of the public API: equality, hashing, repr, immutability,
construction and copying.

Each case names a class, its fields in order, one instance built by keyword,
the same instance built positionally, an instance that differs in one field,
and the exact repr.  ``TridiagonalOperator`` and ``EigenResult`` hold arrays,
so their ``==`` and ``hash`` raise as the arrays' own do; those cases pin that.
"""

import copy
import pickle

import numpy as np
import pytest

import rsse
from rsse.eigensolver import EigenResult, TridiagonalOperator
from rsse.inversion import PlaneWaveState, ThetaChi
from rsse.kinematics import MassiveParticle
from rsse.presets import SolverPreset
from rsse.problem import GridSpec, PotentialSpec, RadialProblem
from rsse.spectra import BindingReport, BindingRow
from rsse.units import ATOMIC, UnitSystem

C = 1.0 / 0.0072973525693
UNITS_REPR = f"UnitSystem(hbar=1.0, c={C!r}, mass_unit=1.0, energy_unit_name='hartree')"
COULOMB_REPR = (
    "PotentialSpec(kind='coulomb', omega=None, Z=1.0, V0=None, a=None, "
    "r_samples=None, V_samples=None)"
)
HARMONIC = PotentialSpec.harmonic(1.0)
COULOMB = PotentialSpec.coulomb(1.0)
GRID = GridSpec(0.0, 1.0, 16)
PROBLEM = RadialProblem(COULOMB, l=1)
ROW = BindingRow("1s1/2", 1, 0, 0.5, -0.5, 0.5, 0.4999, 0.49999, -9e-05)


def operator_fields():
    return (np.array([2.0, 3.0]), np.array([-1.0]), GRID, PROBLEM)


def result_fields():
    return (
        np.array([0.5]),
        np.array([[0.0, 1.0, 0.0]]),
        np.array([1e-12]),
        "fd",
        GRID,
        np.array([0]),
        np.array([False]),
    )


# class, field names, keyword arguments, a one-field change, exact repr
CASES = {
    "UnitSystem": (
        UnitSystem,
        ("hbar", "c", "mass_unit", "energy_unit_name"),
        dict(hbar=1.0, c=C, mass_unit=1.0, energy_unit_name="hartree"),
        dict(hbar=2.0),
        UNITS_REPR,
    ),
    "PotentialSpec": (
        PotentialSpec,
        ("kind", "omega", "Z", "V0", "a", "r_samples", "V_samples"),
        dict(kind="coulomb", omega=None, Z=1.0, V0=None, a=None, r_samples=None, V_samples=None),
        dict(Z=2.0),
        COULOMB_REPR,
    ),
    "GridSpec": (
        GridSpec,
        ("r_min", "r_max", "n"),
        dict(r_min=0.0, r_max=1.0, n=16),
        dict(n=17),
        "GridSpec(r_min=0.0, r_max=1.0, n=16)",
    ),
    "RadialProblem": (
        RadialProblem,
        ("potential", "l", "mu", "M", "units"),
        dict(potential=COULOMB, l=1, mu=1.0, M=1.0, units=ATOMIC),
        dict(l=2),
        f"RadialProblem(potential={COULOMB_REPR}, l=1, mu=1.0, M=1.0, units={UNITS_REPR})",
    ),
    "SolverPreset": (
        SolverPreset,
        ("name", "problem", "fd_grid", "numerov_grid", "description"),
        dict(name="p", problem=PROBLEM, fd_grid=GRID, numerov_grid=GRID, description=""),
        dict(description="other"),
        "SolverPreset(name='p', problem=RadialProblem(potential="
        f"{COULOMB_REPR}, l=1, mu=1.0, M=1.0, units={UNITS_REPR}), "
        "fd_grid=GridSpec(r_min=0.0, r_max=1.0, n=16), "
        "numerov_grid=GridSpec(r_min=0.0, r_max=1.0, n=16), description='')",
    ),
    "MassiveParticle": (
        MassiveParticle,
        ("m0", "v", "p", "units"),
        dict(m0=1.0, v=0.5, p=0.75, units=ATOMIC),
        dict(v=0.25),
        f"MassiveParticle(m0=1.0, v=0.5, p=0.75, units={UNITS_REPR})",
    ),
    "PlaneWaveState": (
        PlaneWaveState,
        ("p", "E", "branch", "Q", "L", "amplitude", "m0"),
        dict(p=1.0, E=2.0, branch="matter", Q=-1, L=1, amplitude=1 + 0j, m0=1.0),
        dict(branch="antimatter"),
        "PlaneWaveState(p=1.0, E=2.0, branch='matter', Q=-1, L=1, amplitude=(1+0j), m0=1.0)",
    ),
    "ThetaChi": (
        ThetaChi,
        ("theta", "chi", "m0", "v", "branch"),
        dict(theta=1 + 0j, chi=0.5j, m0=1.0, v=0.1, branch="matter"),
        dict(chi=0.25j),
        "ThetaChi(theta=(1+0j), chi=0.5j, m0=1.0, v=0.1, branch='matter')",
    ),
    "BindingRow": (
        BindingRow,
        ("state", "n", "l", "j", "epsilon", "B_nonrel", "B_rel", "B_dirac", "delta_rel_vs_dirac"),
        dict(state="1s1/2", n=1, l=0, j=0.5, epsilon=-0.5, B_nonrel=0.5, B_rel=0.4999,
             B_dirac=0.49999, delta_rel_vs_dirac=-9e-05),
        dict(B_dirac=None),
        "BindingRow(state='1s1/2', n=1, l=0, j=0.5, epsilon=-0.5, B_nonrel=0.5, "
        "B_rel=0.4999, B_dirac=0.49999, delta_rel_vs_dirac=-9e-05)",
    ),
    "BindingReport": (
        BindingReport,
        ("system", "n_max", "mu", "M", "has_dirac", "rows"),
        dict(system="hydrogen", n_max=1, mu=1.0, M=1.0, has_dirac=True, rows=(ROW,)),
        dict(rows=()),
        "BindingReport(system='hydrogen', n_max=1, mu=1.0, M=1.0, has_dirac=True, "
        "rows=(BindingRow(state='1s1/2', n=1, l=0, j=0.5, epsilon=-0.5, B_nonrel=0.5, "
        "B_rel=0.4999, B_dirac=0.49999, delta_rel_vs_dirac=-9e-05),))",
    ),
}
# the value classes whose every field compares and hashes as a value
VALUE_CLASSES = sorted(CASES)

# the classes whose fields are arrays: class, field names, a fresh set of field values, repr
ARRAY_CASES = {
    "TridiagonalOperator": (
        TridiagonalOperator,
        ("diagonal", "off_diagonal", "grid", "problem"),
        operator_fields,
        "TridiagonalOperator(diagonal=array([2., 3.]), off_diagonal=array([-1.]), "
        "grid=GridSpec(r_min=0.0, r_max=1.0, n=16), problem=RadialProblem(potential="
        f"{COULOMB_REPR}, l=1, mu=1.0, M=1.0, units={UNITS_REPR}))",
    ),
    "EigenResult": (
        EigenResult,
        ("epsilons", "wavefunctions", "residuals", "method", "grid", "nodes", "degenerate"),
        result_fields,
        "EigenResult(epsilons=array([0.5]), wavefunctions=array([[0., 1., 0.]]), "
        "residuals=array([1.e-12]), method='fd', grid=GridSpec(r_min=0.0, r_max=1.0, n=16), "
        "nodes=array([0]), degenerate=array([False]))",
    ),
}
ARRAY_CLASSES = sorted(ARRAY_CASES)


def make(name, **changes):
    cls, _, kwargs, _, _ = CASES[name]
    return cls(**{**kwargs, **changes})


def values(obj, names):
    return tuple(getattr(obj, name) for name in names)


def test_the_cases_cover_every_public_value_class():
    classes = {
        name
        for name in rsse.__all__
        if isinstance(getattr(rsse, name), type)
        and not issubclass(getattr(rsse, name), (tuple, Exception))
    }
    assert classes == set(CASES) | set(ARRAY_CASES)


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_equal_fields_make_equal_instances_and_hash_as_their_tuple(name):
    _, names, kwargs, _, _ = CASES[name]
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(kwargs[field] for field in names))
    assert values(a, names) == tuple(kwargs[field] for field in names)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_one_changed_field_makes_an_unequal_instance(name):
    _, names, _, change, _ = CASES[name]
    a, b = make(name), make(name, **change)
    assert a != b and not a == b
    assert len({a, b}) == 2
    # another class with the same values is never equal
    assert a != values(a, names)
    assert a.__eq__(values(a, names)) is NotImplemented


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_repr_names_every_field_in_order(name):
    assert repr(make(name)) == CASES[name][4]


@pytest.mark.parametrize("name", ARRAY_CLASSES)
def test_array_classes_repr(name):
    cls, _, fields, text = ARRAY_CASES[name]
    assert repr(cls(*fields())) == text


@pytest.mark.parametrize("name", VALUE_CLASSES + ARRAY_CLASSES)
def test_instances_refuse_assignment_and_deletion(name):
    if name in CASES:
        obj, field = make(name), CASES[name][1][0]
    else:
        cls, names, fields, _ = ARRAY_CASES[name]
        obj, field = cls(*fields()), names[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        obj.extra = 1
    assert getattr(obj, field) is before
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_positional_and_keyword_construction_agree(name):
    cls, names, kwargs, _, _ = CASES[name]
    positional = cls(*(kwargs[field] for field in names))
    assert positional == make(name)
    assert values(positional, names) == values(make(name), names)
    with pytest.raises(TypeError):
        cls(*(kwargs[field] for field in names), None)
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=None)


@pytest.mark.parametrize(
    "cls, required, defaults",
    [
        (UnitSystem, {}, dict(hbar=1.0, c=C, mass_unit=1.0, energy_unit_name="hartree")),
        (PotentialSpec, dict(kind="coulomb", Z=1.0),
         dict(omega=None, V0=None, a=None, r_samples=None, V_samples=None)),
        (RadialProblem, dict(potential=HARMONIC), dict(l=0, mu=1.0, M=1.0, units=ATOMIC)),
        (SolverPreset, dict(name="p", problem=PROBLEM, fd_grid=GRID, numerov_grid=GRID),
         dict(description="")),
        (PlaneWaveState, dict(p=1.0, E=2.0, branch="matter", Q=-1, L=1),
         dict(amplitude=1 + 0j, m0=1.0)),
    ],
    ids=["UnitSystem", "PotentialSpec", "RadialProblem", "SolverPreset", "PlaneWaveState"],
)
def test_defaults_fill_the_trailing_fields(cls, required, defaults):
    obj = cls(**required)
    assert obj == cls(**required, **defaults)
    for field, value in defaults.items():
        assert getattr(obj, field) == value


@pytest.mark.parametrize(
    "name", ["GridSpec", "RadialProblem", "MassiveParticle", "BindingRow", "SolverPreset"]
)
def test_fields_without_defaults_are_required(name):
    cls, names, kwargs, _, _ = CASES[name]
    with pytest.raises(TypeError):
        cls(**{field: kwargs[field] for field in names[1:]})


@pytest.mark.parametrize(
    "construct, message",
    [
        (lambda: GridSpec(1.0, 0.0, 16), r"^need finite r_min < r_max, got \[1.0, 0.0\]$"),
        (lambda: GridSpec(0.0, 1.0, 8), r"^grid node count n must be at least 16, got 8$"),
        (lambda: PotentialSpec("coulomb", 2.0, 1.0),
         r"^coulomb potential takes no omega, got 2.0$"),
        (lambda: PotentialSpec(kind="square"),
         r"^unknown potential kind 'square'; expected one of \('harmonic', 'coulomb', "
         r"'finite_well', 'infinite_well', 'tabulated'\)$"),
        (lambda: PotentialSpec("tabulated", r_samples=[0.0], V_samples=[1.0]),
         r"^tabulated potential needs matching r and V samples \(>= 2\)$"),
        (lambda: UnitSystem(c=0.0), r"^c must be positive and finite, got 0.0$"),
        (lambda: RadialProblem(HARMONIC, l=-1),
         r"^angular momentum l must be nonnegative, got -1$"),
        (lambda: PlaneWaveState(1.0, 2.0, "neither", -1, 1),
         r"^branch must be one of \('matter', 'antimatter'\), got 'neither'$"),
        (lambda: ThetaChi(1.0, 0.0, -1.0, 0.1, "matter"),
         r"^rest mass must be positive and finite, got -1.0$"),
        (lambda: MassiveParticle(0.0, 0.1, 0.1, ATOMIC),
         r"^rest mass must be positive and finite, got 0.0$"),
    ],
)
def test_construction_runs_the_field_checks(construct, message):
    with pytest.raises(ValueError, match=message):
        construct()


def test_construction_normalises_tabulated_samples_to_float_tuples():
    spec = PotentialSpec("tabulated", r_samples=[0, 1], V_samples=np.array([2, 3]))
    assert spec.r_samples == (0.0, 1.0) and spec.V_samples == (2.0, 3.0)
    assert all(type(x) is float for x in spec.r_samples + spec.V_samples)
    assert spec == PotentialSpec.tabulated((0.0, 1.0), (2.0, 3.0))
    hash(spec)


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_copies_are_equal_and_frozen(name, how):
    obj = make(name)
    twin = COPIES[how](obj)
    assert type(twin) is type(obj)
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    with pytest.raises(AttributeError):
        setattr(twin, CASES[name][1][0], None)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", ARRAY_CLASSES)
def test_array_class_copies_keep_every_field(name, how):
    cls, names, fields, text = ARRAY_CASES[name]
    obj = cls(*fields())
    twin = COPIES[how](obj)
    assert type(twin) is cls and repr(twin) == text
    for a, b in zip(values(obj, names), values(twin, names)):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("name", ARRAY_CLASSES)
def test_array_classes_compare_as_tuples_of_their_fields(name):
    # equality is tuple equality of the fields: the same arrays compare
    # equal by identity, and equal copies ask an array for its truth value
    cls, _, fields, _ = ARRAY_CASES[name]
    shared = fields()
    a = cls(*shared)
    assert a == a and a == cls(*shared) and a == copy.copy(a)
    assert a != shared
    with pytest.raises(ValueError, match="truth value of an array"):
        a == cls(*fields())  # noqa: B015
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(a)


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_replace_builds_a_new_instance_with_the_changed_fields(name):
    _, names, _, change, _ = CASES[name]
    obj = make(name)
    assert obj._fields == names
    assert obj._replace(**change) == make(name, **change)
    assert obj._replace() == obj and obj._replace() is not obj
    with pytest.raises(TypeError):
        obj._replace(no_such_field=None)


def test_replace_runs_the_field_checks():
    with pytest.raises(ValueError, match="^grid node count n must be at least 16, got 8$"):
        GRID._replace(n=8)
    with pytest.raises(ValueError, match="^angular momentum l must be an integer, got 0.5$"):
        PROBLEM._replace(l=0.5)
    with pytest.raises(ValueError, match="^coulomb potential takes no a, got 1.0$"):
        COULOMB._replace(a=1.0)
