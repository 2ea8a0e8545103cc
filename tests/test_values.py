"""Value semantics of every class built on ``ratcore.Frozen``."""

from fractions import Fraction

import pytest

from probdowling import (Bernoulli, Binomial, Custom, DiscreteUniform,
                         EgfSeries, Geometric, IdentityReport, McEstimate,
                         Params, PointMass, Poisson, PolyX, WhitneyTriangle,
                         clear_caches, raw_moment)
from probdowling.cli import parse_config
from probdowling.ratcore import Frozen

HALF = Fraction(1, 2)

# One builder per value class; each call builds a new, equal value.
BUILDERS = {
    PointMass: lambda: PointMass(HALF),
    Bernoulli: lambda: Bernoulli("1/2"),
    Binomial: lambda: Binomial(3, HALF),
    DiscreteUniform: lambda: DiscreteUniform(4),
    Poisson: lambda: Poisson(2),
    Geometric: lambda: Geometric(HALF),
    Custom: lambda: Custom((1, HALF, HALF)),
    Params: lambda: Params(2, "1/3"),
    EgfSeries: lambda: EgfSeries((1, HALF)),
    PolyX: lambda: PolyX((1, HALF)),
    WhitneyTriangle: lambda: WhitneyTriangle.build(Bernoulli(HALF),
                                                   Params(2, HALF), 2),
    IdentityReport: lambda: IdentityReport("t", None, None, {"n": 1}, 1, 1,
                                           passed=True),
    McEstimate: lambda: McEstimate(mean=1.0, std_error=0.5, samples=10,
                                   target=Fraction(1)),
}


def test_every_value_class_is_covered():
    assert set(BUILDERS) == set(Frozen.__subclasses__())


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b and a == b and not a != b
    if cls is IdentityReport:       # its bounds are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        # A hashed value keeps its key; one never hashed reads its fields.
        fresh = BUILDERS[cls]()
        assert a == fresh and fresh == a


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    value = BUILDERS[cls]()
    name = cls.fields[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_replace_builds_an_equal_or_changed_copy(cls):
    value = BUILDERS[cls]()
    name = cls.fields[-1]
    assert value.replace() == value
    assert value.replace(**{name: getattr(value, name)}) == value
    with pytest.raises(TypeError):
        value.replace(unknown=1)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field_in_order(cls):
    value = BUILDERS[cls]()
    if cls is PolyX:                # its own repr, a coefficient list
        assert repr(value) == "PolyX([Fraction(1, 1), Fraction(1, 2)])"
        return
    shown = ", ".join(f"{name}={getattr(value, name)!r}"
                      for name in cls.fields)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_replace_runs_the_checks_again():
    params = Params(2, HALF, 1)
    assert params.replace(r=3) == Params(2, HALF, 3)
    assert params.replace(r=3) != params
    hash(params)
    assert params.replace(r=3) != params
    assert params.replace(lam="1/3").lam == Fraction(1, 3)
    with pytest.raises(ValueError):
        params.replace(m=0)
    with pytest.raises(ValueError):
        Bernoulli(HALF).replace(p=2)
    with pytest.raises(ValueError):
        Binomial(3, HALF).replace(trials=0)
    with pytest.raises(ValueError):
        EgfSeries((1,)).replace(coeffs=())
    with pytest.raises(ValueError):
        Custom((1,)).replace(moments=(2,))


def test_positional_keyword_and_default_construction():
    expected = Params(2, Fraction(1, 3), 1)
    assert Params(2, "1/3") == expected
    assert Params(m=2, lam="1/3") == expected
    assert Params(2, lam="1/3", r=1) == expected
    assert repr(expected) == "Params(m=2, lam=Fraction(1, 3), r=1)"
    assert Params.fields == ("m", "lam", "r")
    assert parse_config(["--command", "table"]).corrupt is False
    for args, kwargs in (((2,), {}), ((2, 0, 1, 5), {}), ((2, 0), {"m": 3}),
                         ((2, 0), {"q": 1}), ((), {"lam": 0})):
        with pytest.raises(TypeError):
            Params(*args, **kwargs)


def test_equal_fields_in_different_classes_compare_unequal():
    pairs = ((Bernoulli(HALF), Geometric(HALF)),
             (PointMass(HALF), Poisson(HALF)),
             (EgfSeries((1, HALF)), Custom((1, HALF))))
    for a, b in pairs:
        assert a != b and b != a
    assert Params(2, HALF) != (2, HALF, 1)
    clear_caches()
    assert raw_moment(Bernoulli(HALF), 3) == HALF
    # Failures before the first success at p = 1/2: the Fubini number 13.
    assert raw_moment(Geometric(HALF), 3) == 13


def test_params_keep_their_hash(monkeypatch):
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    params = Params(3, Fraction(2, 7), 1)
    first = hash(params)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    assert hash(params) == first and calls == []
    assert hash(Params(3, Fraction(2, 7), 1)) == first and len(calls) == 1
