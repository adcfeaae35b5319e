"""Tests for the check record and its reducer: the one failure-line form,
the worst-trial note, and how NaN and infinite readings are judged."""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from nlsp.checks import MAX, MIN, Check, Judged, reading


@dataclass
class Record(Judged):
    checks: list


def test_failure_lines_take_one_form_with_the_worst_trial():
    record = Record([
        Check("gap", [0.1, 0.7, 0.7, 0.2], 0.5, MAX, "relative gap",
              "both sides must agree", "suite/a"),
        Check("order", 0.4, 0.9, MIN, "decay order", "residuals must decay"),
        Check("held", [0.1, 0.2], 0.5, MAX, "gap", "fine", "suite/b"),
    ])
    assert not record.passed
    assert record.failures == [
        "gap: relative gap 0.7 exceeds 0.5; both sides must agree "
        "(worst: suite/a trial 1)",
        "order: decay order 0.4 is below 0.9; residuals must decay",
    ]


def test_a_lower_bound_names_its_smallest_score():
    (line,) = Record([Check("sign", [0.3, -0.2, -0.5, -0.5], -0.1, MIN,
                            "min residual", "why", "s")]).failures
    assert line == "sign: min residual -0.5 is below -0.1; why (worst: s trial 2)"


@pytest.mark.parametrize("sense", [MAX, MIN])
def test_a_nan_reading_fails_whatever_the_bound(sense):
    bound = math.inf if sense == MAX else -math.inf
    record = Record([Check("c", [0.0, math.nan, 1.0], bound, sense, "x",
                           "why", "s")])
    assert record.failures == [
        f"c: x nan {'exceeds' if sense == MAX else 'is below'} "
        f"{bound!r}; why (worst: s trial 1)"]


def test_infinite_readings_compare_as_numbers():
    """A residual at the roundoff floor has decay order inf: it meets any
    minimum, and -inf meets none."""
    assert Record([Check("o", math.inf, 1.0, MIN, "order", "why")]).passed
    assert not Record([Check("o", -math.inf, 1.0, MIN, "order", "why")]).passed
    assert Record([]).passed


def test_reading_breaks_ties_like_max_but_keeps_nan():
    for scores in ([0.0, -0.0], [-0.0, 0.0], [1.0, 3.0, 2.0]):
        assert math.copysign(1.0, reading(scores)) \
            == math.copysign(1.0, max(scores))
        assert reading(scores) == max(scores)
    assert math.isnan(reading([1.0, math.nan]))
    assert math.isnan(reading([math.nan, 1.0], MIN))
    assert reading([2.0, 1.0, 1.0], MIN) == 1.0
