"""The value contract of zenokit's record types: how they are built, compared,
hashed, printed, frozen, copied and pickled.

The 13 record types share one frozen base; _Family serves only as the base
of PowerLawOverlap and ExponentialOverlap, so the 12 others are built here.
Each repr is the literal text the same value printed when the types were
frozen dataclasses.
"""

import copy
import itertools
import pickle

import pytest

from zenokit import (
    BrownianModelParams,
    ConstantOverlap,
    DensityMatrix2,
    EvolutionConfig,
    ExplicitOverlaps,
    ExponentialOverlap,
    FreeEvolutionUnitary,
    FreeParticleParams,
    PointerModelParams,
    PowerLawOverlap,
    QubitRegister,
    Regime,
    RegimeClassification,
)

# (type, its field names, positional arguments, the value's repr)
RECORDS = [
    (FreeEvolutionUnitary, ("a", "b", "phi"), (0.6, 0.8j, 0.5),
     "FreeEvolutionUnitary(a=0.6, b=0.8j, phi=0.5)"),
    (EvolutionConfig, ("omega", "T", "n"), (0.5, 1.0, 10),
     "EvolutionConfig(omega=0.5, T=1.0, n=10)"),
    (ConstantOverlap, ("eta",), (0.5,), "ConstantOverlap(eta=0.5)"),
    (PowerLawOverlap, ("alpha", "beta"), (1.0, 2.0), "PowerLawOverlap(alpha=1.0, beta=2.0)"),
    (ExponentialOverlap, ("alpha", "beta"), (0.7, 0.3),
     "ExponentialOverlap(alpha=0.7, beta=0.3)"),
    (ExplicitOverlaps, ("overlaps",), ((0.5, 0.25 + 0.5j),),
     "ExplicitOverlaps(overlaps=((0.5+0j), (0.25+0.5j)))"),
    (RegimeClassification,
     ("label", "limit_coefficient", "diagnostics", "converged"),
     (Regime.INTERMEDIATE, 0.5, ((64, 0.1),), False),
     "RegimeClassification(label=<Regime.INTERMEDIATE: 'Intermediate'>, limit_coefficient=0.5, "
     "diagnostics=((64, 0.1),), converged=False)"),
    (FreeParticleParams, ("m", "sigma", "hbar"), (1e-26, 1e-10, 1e-34),
     "FreeParticleParams(m=1e-26, sigma=1e-10, hbar=1e-34)"),
    (PointerModelParams, ("v", "sigma", "c_ratio", "T"), (1.0, 2.0, 0.5, 3.0),
     "PointerModelParams(v=1.0, sigma=2.0, c_ratio=0.5, T=3.0)"),
    (BrownianModelParams, ("D", "T"), (2.0, 1.0), "BrownianModelParams(D=2.0, T=1.0)"),
    (QubitRegister, ("k", "amplitudes"), (1, (0.6, 0.8)),
     "QubitRegister(k=1, amplitudes=((0.6+0j), (0.8+0j)))"),
    (DensityMatrix2, ("matrix",), (((0.5, 0.5j), (-0.5j, 0.5)),),
     "DensityMatrix2(matrix=(((0.5+0j), 0.5j), ((-0-0.5j), (0.5+0j))))"),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize(("cls", "names", "args", "text"), RECORDS, ids=IDS)
def test_position_and_keyword_build_one_value(cls, names, args, text):
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    assert cls._fields == names


@pytest.mark.parametrize(("value", "text"), [
    (FreeEvolutionUnitary(1, 0), "FreeEvolutionUnitary(a=1, b=0, phi=0.0)"),
    (RegimeClassification(Regime.ZENO, 0.0),
     "RegimeClassification(label=<Regime.ZENO: 'Zeno'>, limit_coefficient=0.0, "
     "diagnostics=(), converged=True)"),
    (FreeParticleParams(1e-26, 1e-10),
     "FreeParticleParams(m=1e-26, sigma=1e-10, hbar=1.054571817e-34)"),
], ids=["FreeEvolutionUnitary", "RegimeClassification", "FreeParticleParams"])
def test_defaults_fill_the_fields_not_given(value, text):
    assert repr(value) == text
    assert value == type(value)(*(getattr(value, name) for name in value._fields))


@pytest.mark.parametrize(("cls", "names", "args", "text"), RECORDS, ids=IDS)
def test_bad_arguments_raise_type_error(cls, names, args, text):
    keywords = dict(zip(names, args))
    with pytest.raises(TypeError, match=f"missing {names[0]!r}"):
        cls(**{name: v for name, v in keywords.items() if name != names[0]})
    with pytest.raises(TypeError, match="unexpected argument 'no_such_field'"):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError, match=f"two values for {names[0]!r}"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match=f"{len(names) + 1} positional arguments "
                                        f"for the fields {', '.join(names)}$"):
        cls(*args, *args[:1])


@pytest.mark.parametrize(("left", "right"), itertools.combinations(RECORDS, 2),
                         ids=[f"{a}-{b}" for a, b in itertools.combinations(IDS, 2)])
def test_values_of_two_classes_are_unequal(left, right):
    a, b = left[0](*left[2]), right[0](*right[2])
    assert a != b
    assert not a == b


@pytest.mark.parametrize(("cls", "names", "args", "text"), RECORDS, ids=IDS)
def test_hash_is_the_field_tuple_hash(cls, names, args, text):
    value = cls(*args)
    assert hash(value) == hash(cls(*args)) == hash(tuple(getattr(value, n) for n in names))
    # a value is not its field tuple, though it hashes as one
    assert value != tuple(getattr(value, n) for n in names)
    assert len({value, cls(*args)}) == 1


@pytest.mark.parametrize(("cls", "names", "args", "text"), RECORDS, ids=IDS)
def test_values_are_frozen(cls, names, args, text):
    value = cls(*args)
    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field {names[0]!r}"):
        delattr(value, names[0])
    assert repr(value) == text


@pytest.mark.parametrize(("cls", "names", "args", "text"), RECORDS, ids=IDS)
def test_copy_and_pickle_give_equal_values(cls, names, args, text):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text


def test_values_match_by_position():
    match EvolutionConfig(0.5, 1.0, 10):
        case EvolutionConfig(omega, T, n=n):
            assert (omega, T, n) == (0.5, 1.0, 10)
        case _:
            pytest.fail("EvolutionConfig did not match its fields")
