import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from constbandit import GEOMETRIC, make_custom, polylog, regret_bound, rmax_bound
from constbandit.schedules import ADAPTIVE_RATIO


def test_gap_profile_basics():
    assert make_custom([0.5, 0.1, 0.5]).delta_min == pytest.approx(0.4)
    assert make_custom([0.5, 0.5]).delta_min is None
    assert regret_bound((0.0, 0.4, 0.0), 10, GEOMETRIC) == regret_bound((0.0, 0.4), 10, GEOMETRIC)
    for gaps, message in [
        ((0.1, 0.2), "best arm's own gap must be 0"),
        ((0.0, -0.1), "non-negative"),
        ((), "non-empty"),
        ((0.0, 0.0), "all gaps zero"),
    ]:
        with pytest.raises(ValueError, match=message):
            regret_bound(gaps, 10, GEOMETRIC)


def test_rmax_bound_hand_values():
    assert rmax_bound(0.1, GEOMETRIC) == 5  # ceil(log2(20))
    assert rmax_bound(1.0, GEOMETRIC) == 1  # ceil(log2(2))
    # evaluate the poly-log expression numerically as the oracle
    inner = math.log2(200.0)
    expected = math.ceil((2.0 / 0.5 + 1.0) * inner / math.log2(inner) + 2.0)
    assert rmax_bound(0.01, polylog(0.5)) == expected


def test_rmax_bound_adaptive_matches_halving_cap():
    # the adaptive rule shrinks at least as fast as halving
    assert rmax_bound(0.1, ADAPTIVE_RATIO) == rmax_bound(0.1, GEOMETRIC)


def test_rmax_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        rmax_bound(0.0, GEOMETRIC)
    with pytest.raises(ValueError):
        rmax_bound(1.5, GEOMETRIC)
    with pytest.raises(ValueError, match="round-count cap is not a finite float"):
        rmax_bound(0.0625, polylog(1e-308))  # 2/epsilon is past the float range


def test_rmax_caps_cover_schedule_convergence():
    # A commit is forced once the half-width drops below delta/2, so the
    # number of schedule steps from 1/2 to delta/2 must sit under the cap.
    from constbandit import rounds_to_precision

    for delta in (0.9, 0.5, 0.1, 0.01, 1e-4):
        target = delta / 2.0
        assert rounds_to_precision(0.5, target, GEOMETRIC) <= rmax_bound(delta, GEOMETRIC)
        for eps in (0.25, 0.5, 1.0):
            steps = rounds_to_precision(0.5, target, polylog(eps))
            assert steps <= rmax_bound(delta, polylog(eps))


def test_regret_bound_single_arm_hand_value():
    profile = (0.0, 0.5)
    # (1/0.5) * max(1, log2(1)) * ln(e) = 2
    assert regret_bound(profile, math.e, GEOMETRIC) == pytest.approx(2.0)


def test_regret_bound_separable_in_horizon():
    profile = (0.0, 0.1, 0.4)
    for T in (10, 1000, 10**6):
        ratio = regret_bound(profile, 2 * T, GEOMETRIC) / regret_bound(profile, T, GEOMETRIC)
        assert ratio == pytest.approx(math.log(2 * T) / math.log(T))


def test_regret_bound_two_group_numeric():
    # independent evaluation of the halving-schedule expression
    gaps = (0.0, 0.01, 0.01, 0.5, 0.5, 0.5)
    T = 10**4
    expected = 0.0
    for gap in gaps:
        if gap > 0:
            expected += max(1.0, math.log2(gap / 0.01)) / gap
    expected *= math.log(T)
    assert regret_bound(gaps, T, GEOMETRIC) == pytest.approx(expected)


def test_regret_bound_polylog_numeric():
    gaps = (0.0, 0.02, 0.3)
    eps = 0.5
    gamma = 1.0
    T = 500
    expected = 0.0
    for gap in (0.02, 0.3):
        ratio_log = max(1.0, math.log2(gap / 0.02))
        term = max(1.0, math.log2(1.0 / gap)) ** gamma + ratio_log / (
            gamma * max(1.0, math.log2(ratio_log))
        )
        expected += term / gap
    expected *= math.log(T)
    assert regret_bound(gaps, T, polylog(eps)) == pytest.approx(expected)


def test_regret_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        regret_bound((0.0, 0.0), 100, GEOMETRIC)
    with pytest.raises(ValueError):
        regret_bound((0.0, 0.5), 1, GEOMETRIC)


@given(
    st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=6),
    st.sampled_from([GEOMETRIC, polylog(0.5)]),
)
def test_regret_bound_monotone_in_horizon(gaps, schedule):
    profile = (0.0, *gaps)
    values = [regret_bound(profile, T, schedule) for T in (10, 100, 10**4, 10**8)]
    assert values == sorted(values)


@given(
    st.lists(st.floats(min_value=0.002, max_value=0.999), min_size=2, max_size=6),
    st.data(),
)
def test_regret_bound_never_drops_when_a_gap_halves(gaps, data):
    # Halving any arm's gap (doubling 1/gap) never decreases the bound,
    # including when the halved arm redefines the minimal gap.
    profile = (0.0, *gaps)
    idx = data.draw(st.integers(min_value=0, max_value=len(gaps) - 1))
    shrunk = list(gaps)
    shrunk[idx] = shrunk[idx] / 2.0
    before = regret_bound(profile, 10**4, GEOMETRIC)
    after = regret_bound((0.0, *shrunk), 10**4, GEOMETRIC)
    assert after >= before * (1.0 - 1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=True),
    st.sampled_from([2, 10**6]),
    st.sampled_from([GEOMETRIC, polylog(0.5)]),
)
@example(1.2e-308, 10**6, GEOMETRIC)  # (1/gap) * ln T passes the float range, 2/gap does not
@example(5e-324, 2, polylog(0.5))
@example(1.0, 2, GEOMETRIC)
def test_regret_bound_is_finite_or_raises(mean, horizon, schedule):
    try:
        bound = regret_bound(make_custom([mean, 0.0]).gaps, horizon, schedule)
    except ValueError as exc:
        assert "not a finite float" in str(exc)
    else:
        assert isinstance(bound, float) and math.isfinite(bound)
