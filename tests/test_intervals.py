import math

import pytest

from hemiflow.errors import DomainError, NonFiniteBar
from hemiflow.intervals import Bar


def test_endpoints():
    b = Bar(2.0, 0.5)
    assert b.lo == 1.5 and b.hi == 2.5


def test_arithmetic():
    a, b = Bar(1.0, 0.1), Bar(2.0, 0.2)
    s = a + b
    assert s.center == 3.0 and abs(s.halfwidth - 0.3) < 1e-15
    d = b - a
    assert d.center == 1.0 and abs(d.halfwidth - 0.3) < 1e-15
    m = a * -2.0
    assert m.center == -2.0 and abs(m.halfwidth - 0.2) < 1e-15
    t = 1.0 + a
    assert t.center == 2.0 and t.halfwidth == 0.1


def test_contains_and_overlaps():
    a = Bar(1.0, 0.1)
    assert a.contains(1.05)
    assert not a.contains(1.2)
    assert a.contains(1.2, slack=0.15)
    assert a.overlaps(Bar(1.15, 0.06))
    assert not a.overlaps(Bar(1.3, 0.05))


def test_widen():
    assert abs(Bar(1.0, 0.1).widen(0.05).halfwidth - 0.15) < 1e-15


def test_negative_halfwidth_rejected():
    with pytest.raises(ValueError):
        Bar(0.0, -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_center_rejected(value):
    with pytest.raises(NonFiniteBar):
        Bar(value, 0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_halfwidth_rejected(value):
    with pytest.raises(NonFiniteBar):
        Bar(1.0, value)


def test_non_finite_result_of_arithmetic_rejected():
    assert issubclass(NonFiniteBar, DomainError)
    with pytest.raises(NonFiniteBar):
        Bar(1e308, 0.0) * 10.0
