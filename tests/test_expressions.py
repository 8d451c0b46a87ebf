import math
import re

import pytest

from carrollgeo.errors import ConstructionError
from carrollgeo.expressions import compile_expression, parse_number, parse_tuple


def test_basic_arithmetic():
    fn = compile_expression("2 * m + r^2", ("m", "r"))
    assert fn(1.5, 2.0) == 7.0


def test_functions_and_constants():
    fn = compile_expression("exp(sin(m)) / pi", ("m",))
    assert fn(0.3) == pytest.approx(math.exp(math.sin(0.3)) / math.pi)


def test_unary_minus():
    assert compile_expression("-t^2", ("t",))(3.0) == -9.0


def test_parse_number_pi_expression():
    assert parse_number("pi/2") == pytest.approx(math.pi / 2)
    assert parse_number("-1.5e-3") == -1.5e-3


def test_parse_tuple():
    assert parse_tuple("pi/2, 0, 1") == pytest.approx((math.pi / 2, 0.0, 1.0))


def test_rejects_unknown_names():
    with pytest.raises(ConstructionError):
        compile_expression("q + 1", ("m",))


def test_rejects_calls_outside_whitelist():
    with pytest.raises(ConstructionError):
        compile_expression("__import__('os')", ("m",))
    with pytest.raises(ConstructionError):
        compile_expression("open(m)", ("m",))


def test_rejects_attribute_access():
    with pytest.raises(ConstructionError):
        compile_expression("m.real", ("m",))


def test_domain_errors_surface_at_call_time():
    fn = compile_expression("sqrt(m - 2)", ("m",))
    assert fn(6.0) == 2.0
    with pytest.raises(ConstructionError, match="sqrt"):
        fn(0.0)


@pytest.mark.parametrize(
    "text, cause",
    [
        ("1/0", ZeroDivisionError),
        ("sqrt(-1)", ValueError),
        ("log(0)", ValueError),
        ("(-1)^0.5", ValueError),
        ("exp(1000)", OverflowError),
        ("10^400", OverflowError),
    ],
)
def test_arithmetic_errors_name_the_expression(text, cause):
    with pytest.raises(ConstructionError, match=re.escape(repr(text))) as info:
        parse_number(text)
    assert isinstance(info.value.__cause__, cause)

