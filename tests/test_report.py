"""Tests for the check protocol, ``RunReport.check``, and the JSON numbers."""

import json
import math

import pytest
from hypothesis import example, given, strategies as st

from kgalilei.report import CheckFailure, RunReport, canonical_json


class Residual:
    """An exact residual: zero or not, with a canonical repr and a size."""

    def __init__(self, value):
        self.value = value

    @property
    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return f"Residual({self.value})"


def _drawn(items, seen):
    """``items``, noting each one in ``seen`` as it is drawn."""
    for item in items:
        seen.append(item)
        yield item


def test_no_items_pass_with_zero():
    report = RunReport("x", {})
    exact = report.check("exact", [], Residual)
    close = report.check("float", iter(()), float, tol=1e-12)
    assert (exact.status, exact.residual, exact.detail) == ("exact-pass", 0.0, "")
    assert (close.status, close.residual, close.detail) == ("pass", 0.0, "")
    assert report.exit_code == 0


def test_float_check_is_its_worst_item():
    values = {"a": 1e-13, "b": 3e-13, "c": 2e-13}
    report = RunReport("x", {})
    passed = report.check("at-the-bound", values, values.get, tol=3e-13)
    assert (passed.status, passed.residual, passed.detail) == ("pass", 3e-13, "")
    failed = report.check("above-it", values, values.get, tol=2e-13)
    assert (failed.status, failed.residual) == ("fail", 3e-13)
    assert failed.detail == "b: 3.00000000000e-13"


@pytest.mark.parametrize("values", [[1.0, math.nan, 1e300], [1e300, math.nan, 1.0],
                                    [math.nan, 1e300, math.inf]])
def test_nan_is_the_worst_value_and_fails(values):
    # NaN compares false with everything, so a plain max could keep any of
    # the finite values; the protocol takes the NaN, and so fails
    report = RunReport("x", {})
    result = report.check("nan", range(len(values)), values.__getitem__, tol=math.inf)
    assert result.status == "fail" and math.isnan(result.residual)
    (index,) = [i for i, v in enumerate(values) if math.isnan(v)]
    assert result.detail == f"{index}: nan"


def test_exact_check_counts_failures_or_sizes_them():
    values = {("K1", "P1"): 0, ("K1", "P2"): 3, ("K2", "P1"): 0, ("K2", "P2"): -5}
    report = RunReport("x", {})
    counted = report.check("count", values, lambda key: Residual(values[key]))
    assert (counted.status, counted.residual) == ("fail", 2.0)
    # the first failing item, its parts joined by commas, and its residual
    assert counted.detail == "K1, P2: Residual(3)"
    sized = report.check("size", values, lambda key: Residual(values[key]),
                         size=lambda r: abs(r.value))
    assert (sized.status, sized.residual, sized.detail) == ("fail", 5.0, "K1, P2: Residual(3)")
    passed = report.check("zero", values, lambda key: Residual(0), size=lambda r: 1.0)
    assert (passed.status, passed.residual, passed.detail) == ("exact-pass", 0.0, "")
    assert [c.name for c in report.failed] == ["count", "size"]


def test_check_failure_ends_the_check_and_names_its_item():
    def residual(item):
        if item == "pair 2":
            raise CheckFailure("ratio varies", 0.25)
        return 0.0

    seen = []
    report = RunReport("x", {})
    result = report.check("draws", _drawn((f"pair {i}" for i in range(5)), seen),
                          residual, tol=1.0)
    assert seen == ["pair 0", "pair 1", "pair 2"]
    assert (result.name, result.status, result.residual) == ("draws", "fail", 0.25)
    assert result.detail == "pair 2: ratio varies"


def test_check_failure_while_drawing_names_no_item():
    # an error raised before the first item, and one raised between two
    # items, is not the previous item's
    class Unsolved(CheckFailure):
        check = "solved"

    def levels(fail_after):
        for n in range(fail_after):
            yield n + 1
        raise Unsolved("grid too coarse", 3)

    report = RunReport("x", {})
    first = report.check("levels-0", levels(0), lambda n: 0.0, tol=0.0)
    assert (first.name, first.status, first.residual, first.detail) == (
        "solved", "fail", 3.0, "grid too coarse")
    with pytest.raises(ValueError, match="'solved' registered twice"):
        report.check("levels-2", levels(2), lambda n: 0.0, tol=0.0)
    later = RunReport("x", {}).check("levels-2", levels(2), Residual)
    assert later.detail == "grid too coarse"


def test_repeated_check_name_is_rejected():
    report = RunReport("x", {})
    report.check("a", [()], lambda _: 0.0, tol=0.0)
    with pytest.raises(ValueError, match="'a' registered twice"):
        report.check("a", [()], Residual)
    assert len(report.checks) == 1


def test_other_errors_propagate():
    # only a CheckFailure is a verdict; any other exception is the caller's
    report = RunReport("x", {})
    with pytest.raises(ZeroDivisionError):
        report.check("a", [0], lambda x: 1 / x, tol=1.0)
    assert report.checks == []


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(math.nextafter(1e-3, 0))
def test_every_finite_float_round_trips_through_json(x):
    # a printed number reads back as a value that prints the same text
    text = canonical_json(x)
    assert canonical_json(json.loads(text)) == text
