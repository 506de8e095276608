import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import constbandit.schedules as schedules
from constbandit import (
    ADAPTIVE_RATIO,
    GEOMETRIC,
    Schedule,
    next_precision,
    polylog,
    polylog_rounds_bound,
    rounds_to_precision,
)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("polylog")  # missing epsilon
    with pytest.raises(ValueError):
        polylog(0.0)
    with pytest.raises(ValueError):
        polylog(1.5)
    with pytest.raises(ValueError):
        Schedule("geometric", 0.5)
    with pytest.raises(ValueError):
        Schedule("fancy")
    assert polylog(0.5).label() == "polylog(0.5)"
    assert polylog(1.0).label() == "polylog(1)"
    assert polylog(0.123456789).label() == "polylog(0.123456789)"
    assert GEOMETRIC.label() == "geometric"


@pytest.mark.parametrize(
    "schedule",
    [
        GEOMETRIC,
        ADAPTIVE_RATIO,
        polylog(0.25),
        polylog(0.5),
        polylog(1.0),
        polylog(0.123456789),
        polylog(1 / 3),
    ],
)
def test_parse_inverts_label(schedule):
    assert Schedule.parse(schedule.label()) == schedule


def test_parse_rejects_other_text():
    assert Schedule.parse("polylog") == polylog(0.5)
    for text in ("fancy", "", "geometric(0.5)", "polylog()", "polylog(2)", "polylog(x)"):
        with pytest.raises(ValueError):
            Schedule.parse(text)


def test_next_precision_hand_values():
    assert next_precision(0.5, GEOMETRIC) == 0.25
    # log2(16) = 4, so 0.0625 / (2*4)
    assert next_precision(0.0625, polylog(1.0)) == pytest.approx(0.0078125)
    # (1-s)/s = 3, so 0.1 / 6
    assert next_precision(0.1, ADAPTIVE_RATIO, survivor_fraction=0.25) == pytest.approx(0.1 / 6)


def test_next_precision_rejects_bad_inputs():
    with pytest.raises(ValueError):
        next_precision(0.0, GEOMETRIC)
    with pytest.raises(ValueError):
        next_precision(1.5, GEOMETRIC)
    with pytest.raises(ValueError):
        next_precision(0.5, ADAPTIVE_RATIO)  # fraction missing
    with pytest.raises(ValueError):
        next_precision(0.5, ADAPTIVE_RATIO, survivor_fraction=0.0)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.sampled_from([GEOMETRIC, polylog(0.25), polylog(0.5), polylog(1.0)]),
)
def test_next_precision_at_most_halves(g, schedule):
    assert next_precision(g, schedule) <= g / 2.0


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
def test_adaptive_step_at_most_halves(g, s):
    assert next_precision(g, ADAPTIVE_RATIO, survivor_fraction=s) <= g / 2.0


@given(st.sampled_from([0.5, 1.0]), st.integers(min_value=1, max_value=40))
def test_geometric_round_count_exact(g0, exponent):
    target = 2.0**-exponent
    if target >= g0:
        target = g0 / 2.0**exponent
    expected = math.ceil(math.log2(g0 / target))
    assert rounds_to_precision(g0, target, GEOMETRIC) == expected


def test_round_count_edge_cases():
    assert rounds_to_precision(0.5, 0.0625, GEOMETRIC) == 3
    assert rounds_to_precision(0.5, 0.5, GEOMETRIC) == 0  # already at target
    assert rounds_to_precision(0.5, 0.5, polylog(0.5)) == 0
    with pytest.raises(ValueError):
        rounds_to_precision(0.5, 0.6, GEOMETRIC)
    with pytest.raises(ValueError):
        rounds_to_precision(0.5, 0.1, ADAPTIVE_RATIO)


def test_polylog_count_meets_example_cap():
    # iterate the recurrence independently of the library loop
    g, count = 1.0, 0
    while g > 2.0**-16:
        g = g / (2.0 * max(1.0, math.log2(1.0 / g)))
        count += 1
    assert rounds_to_precision(1.0, 2.0**-16, polylog(1.0)) == count
    assert count <= 14  # (2/1 + 1) * (16/4) + 2


def test_polylog_rounds_bound_grid():
    for g0 in (0.5, 1.0):
        for exponent in range(4, 25):
            target = 2.0**-exponent
            for eps in (0.25, 0.5, 1.0):
                count = rounds_to_precision(g0, target, polylog(eps))
                assert count <= polylog_rounds_bound(g0, target, eps)


def test_polylog_rounds_bound_rejects_tight_ratio():
    with pytest.raises(ValueError):
        polylog_rounds_bound(0.5, 0.3, 0.5)  # g0/target <= 2


def test_iteration_cap_guards_non_termination(monkeypatch):
    monkeypatch.setattr(schedules, "_ITERATION_CAP", 10)
    with pytest.raises(RuntimeError):
        rounds_to_precision(1.0, 2.0**-20, GEOMETRIC)
