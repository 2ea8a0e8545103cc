"""Value semantics of every class built on ``ratcore.Frozen``."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (Bernoulli, Binomial, Custom, DiscreteUniform,
                         EgfSeries, Geometric, IdentityReport, McEstimate,
                         Params, PointMass, Poisson, PolyX, clear_caches,
                         raw_moment)
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
    # A value is never changed: a copy, with or without a field replaced,
    # is built anew by keyword from the fields.
    value = BUILDERS[cls]()
    fields = {name: getattr(value, name) for name in cls.fields}
    assert cls(**fields) == value
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)


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
    # A value built with one field replaced keeps no key of the hashed
    # original, and is coerced and checked like any new value.
    params = Params(2, HALF, 1)
    hash(params)
    assert Params(2, HALF, 3) != params
    assert Params(2, "1/3", 1).lam == Fraction(1, 3)
    for build in (lambda: Params(0, HALF, 1), lambda: Bernoulli(2),
                  lambda: Binomial(0, HALF), lambda: EgfSeries(()),
                  lambda: Custom((2,))):
        with pytest.raises(ValueError):
            build()


def test_positional_keyword_and_default_construction():
    expected = Params(2, Fraction(1, 3), 1)
    assert Params(2, "1/3") == expected
    assert Params(m=2, lam="1/3") == expected
    assert Params(2, lam="1/3", r=1) == expected
    assert repr(expected) == "Params(m=2, lam=Fraction(1, 3), r=1)"
    assert Params.fields == ("m", "lam", "r")
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
    # A fresh equal value hashes its integer key: no Fraction hash either.
    assert hash(Params(3, Fraction(2, 7), 1)) == first and calls == []


# Small domains, so two draws are often equal.  Ints and Fractions mix,
# so a whole Fraction meets the int it equals.
RATIONALS = st.one_of(st.integers(-2, 2),
                      st.fractions(-2, 2, max_denominator=3))
UNIT = st.fractions(0, 1, max_denominator=3)
RATIONAL_TUPLES = st.lists(RATIONALS, min_size=1, max_size=3).map(tuple)
MODELS = st.one_of(st.builds(Bernoulli, UNIT),
                   st.builds(Geometric, UNIT.filter(bool)))
PARAMS = st.builds(Params, st.integers(1, 2),
                   st.sampled_from([0, Fraction(-1, 2), Fraction(1, 3)]),
                   st.integers(0, 1))
FIELDS = {
    PointMass: st.tuples(RATIONALS),
    Bernoulli: st.tuples(UNIT),
    Binomial: st.tuples(st.integers(1, 2), UNIT),
    DiscreteUniform: st.tuples(st.integers(0, 2)),
    Poisson: st.tuples(st.fractions(0, 2, max_denominator=2)),
    Geometric: st.tuples(UNIT.filter(bool)),
    Custom: st.tuples(RATIONAL_TUPLES.map(lambda tail: (1,) + tail)),
    # lam = 0 and lam < 0 included.
    Params: st.tuples(st.integers(1, 2), RATIONALS, st.integers(0, 1)),
    EgfSeries: st.tuples(RATIONAL_TUPLES),
    PolyX: st.tuples(RATIONAL_TUPLES),
    IdentityReport: st.tuples(st.sampled_from(["a", "b"]),
                              st.one_of(st.none(), MODELS),
                              st.one_of(st.none(), PARAMS),
                              st.fixed_dictionaries({"n": st.integers(0, 1)}),
                              RATIONALS, RATIONALS, st.booleans()),
    McEstimate: st.tuples(st.sampled_from([0.0, 0.5]),
                          st.sampled_from([0.0, 0.5]), st.integers(1, 2),
                          RATIONALS),
}


def test_every_value_class_has_field_strategies():
    assert set(FIELDS) == set(Frozen.__subclasses__())


def _hash_if_hashable(value):
    try:
        hash(value)
    except TypeError:               # a report's bounds are a dict
        pass


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_kept_integer_keys_do_not_change_equality(cls, data):
    # The first hash keeps a key with integers in place of Fractions; the
    # answer must not depend on which sides hold one, and two values are
    # equal exactly when their fields are (PolyX, with its own equality,
    # too: its canonical coefficients hold no trailing zeros).
    a, b = data.draw(FIELDS[cls]), data.draw(FIELDS[cls])
    answers, hashes = set(), set()
    for hash_x, hash_y in product((False, True), repeat=2):
        x, y = cls(*a), cls(*b)
        if hash_x:
            _hash_if_hashable(x)
        if hash_y:
            _hash_if_hashable(y)
        answers.add((x == y, y == x, x != y))
        if x == y and cls is not IdentityReport:
            hashes.add(hash(x) == hash(y))
    assert len(answers) == 1 and hashes <= {True}
    equal = answers.pop()[0]
    assert equal == all(getattr(x, name) == getattr(y, name)
                        for name in cls.fields)
