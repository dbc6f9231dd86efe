"""The entry invariant of `RatMatrix`: an `int` when integral, a `Fraction`
otherwise, and never a float.

`built_matrices` records every matrix constructed while a test runs; the
entries are checked after the test, so a value written into a matrix after
its construction is checked too.
"""

import inspect
from fractions import Fraction

import pytest

import test_acceptance
from gitpol.exact import RatMatrix, _div, rat

CRITERIA = [fn for name, fn in sorted(vars(test_acceptance).items())
            if name.startswith("test_criterion_") and inspect.isfunction(fn)]
SYSTEMS = [value for name, value in sorted(vars(test_acceptance).items())
           if name.startswith("SYS_")]


def _bad_entries(mat: RatMatrix) -> list:
    return [x for row in mat.rows for x in row
            if not (type(x) is int or (type(x) is Fraction and x.denominator != 1))]


@pytest.fixture
def built_matrices(monkeypatch):
    built = []
    init = RatMatrix.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RatMatrix, "__init__", recording_init)
    return built


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__[5:])
def test_acceptance_matrices_hold_int_or_fraction_entries(criterion, built_matrices):
    criterion()
    for mat in built_matrices:
        bad = _bad_entries(mat)
        assert not bad, f"{mat!r} stores {bad[0]!r} ({type(bad[0]).__name__})"


def test_acceptance_systems_hold_int_entries():
    assert len(SYSTEMS) == 5
    for sysm in SYSTEMS:
        for comps in (sysm.comp_aa, sysm.comp_bb, sysm.comp_ha, sysm.comp_bh):
            for mat in comps.values():
                assert all(type(x) is int for row in mat.rows for x in row)


def test_constructor_normalizes_and_rejects_floats():
    mat = RatMatrix(2, 2, [[Fraction(4, 2), Fraction(1, 3)], [0, Fraction(0)]])
    assert [[type(x) for x in row] for row in mat.rows] == [[int, Fraction], [int, int]]
    assert mat.rows == [[2, Fraction(1, 3)], [0, 0]]
    for bad in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            RatMatrix(1, 1, [[bad]])
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[1, 0.5]])


def test_exact_division_never_gives_a_float():
    assert _div(6, 3) == 2 and type(_div(6, 3)) is int
    assert _div(3, 6) == Fraction(1, 2) and type(_div(3, 6)) is Fraction
    assert _div(-3, 6) == Fraction(-1, 2)
    assert type(_div(Fraction(3, 2), Fraction(3, 4))) is int
    assert _div(Fraction(3, 2), 2) == Fraction(3, 4)


def test_integer_rref_stays_integral():
    red, pivots = RatMatrix.from_rows([[2, 4, 6], [-1, 1, 0], [1, 5, 6]]).rref()
    assert pivots == [0, 1]
    assert red.rows == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert all(type(x) is int for row in red.rows for x in row)
    red, _ = RatMatrix.from_rows([[3, 1], [0, 0]]).rref()
    assert red.rows == [[1, Fraction(1, 3)], [0, 0]]


def test_rat_still_returns_fraction():
    for value in (3, -2, 0, "3", " -2 ", "3/4", Fraction(6, 3)):
        assert type(rat(value)) is Fraction
    assert rat("6/3") == 2 and type(rat("6/3")) is Fraction
