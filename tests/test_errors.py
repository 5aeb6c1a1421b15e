import re
from pathlib import Path

import numpy as np
import pytest

from terniq.circuit import MeasureOp
from terniq.errors import SizeError, as_int, int_fields

SRC = Path(__file__).parents[1] / "src" / "terniq"


@pytest.mark.parametrize("value,expected", [(3, 3), (True, 1), (False, 0), (np.int64(7), 7),
                                            (np.uint8(2), 2), (2**80, 2**80)], ids=repr)
def test_as_int_returns_a_python_int(value, expected):
    got = as_int(value, "x", 0)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value,low,high,message", [
    (1.5, None, None, "non-integer digits: 1.5 is not an integer"),
    (2.0, 0, None, "non-integer digits: 2.0 is not an integer >= 0"),
    ("3", None, None, "non-integer digits: '3' is not an integer"),
    (None, None, 5, "non-integer digits: None is not an integer <= 5"),
    (np.float64(1.0), 0, 2, "non-integer digits: np.float64(1.0) is not an integer in [0, 2]"),
    (-1, 0, None, "out-of-range digits: -1 is not an integer >= 0"),
    (3, 0, 2, "out-of-range digits: 3 is not an integer in [0, 2]"),
    (np.int8(-4), None, -5, "out-of-range digits: -4 is not an integer <= -5"),
], ids=repr)
def test_as_int_names_the_field_and_its_bounds(value, low, high, message):
    with pytest.raises(SizeError, match=f"^{re.escape(message)}$"):
        as_int(value, "digits", low, high)


def test_int_fields_sets_each_field_to_its_int():
    op = MeasureOp(np.int64(1), True)
    assert (op.wire, op.slot) == (1, 1) and type(op.wire) is type(op.slot) is int
    int_fields(op, wire=1)
    with pytest.raises(SizeError, match="out-of-range MeasureOp slot: 1 is not an integer >= 2"):
        int_fields(op, slot=2)


def test_only_the_errors_module_checks_integer_ness():
    # any other input check goes through as_int or int_fields
    idioms = re.compile(r"__index__|np\.integer\)\)|operator\.index")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1) if idioms.search(line)]
    assert offenders == [] and idioms.search((SRC / "errors.py").read_text())
