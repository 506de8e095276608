import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from constbandit import ConstSpacePolicy, Rule, round_budget


def test_radius_hand_values():
    # ln(1/delta) = 1: sqrt(1/4) after 2 pulls, sqrt(1/16) after 8, the budget
    policy = ConstSpacePolicy(2, 100, rule=Rule(math.exp(-1)))
    assert policy.budget == 8
    radii = []
    while policy.scan_arm == 0:
        policy.observe(0.5)
        radii.append(policy.radius)
    assert len(radii) == 8
    assert radii[1] == pytest.approx(0.5) and radii[7] == pytest.approx(0.25)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_rule_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
        Rule(delta)


def test_default_rule_bits():
    rule = Rule()
    assert rule.delta_for(1) == 0.125
    assert rule.delta_for(10) == 0.001
    assert rule.delta_for(10**5) == 1e-15
    assert math.isfinite(rule.delta_for(10**102))
    with pytest.raises(OverflowError, match=r"^horizon too large: T\^3 overflows a float$"):
        rule.delta_for(10**103)
    # round 1 of the ledger on linear(K=16), T=1e5: ceil(2 ln(1e15) / 0.25)
    assert ConstSpacePolicy(16, 10**5).budget == 277


def test_fixed_rule_ignores_horizon_and_labels_its_delta():
    assert Rule(0.01).delta_for(1) == Rule(0.01).delta_for(10**400) == 0.01
    assert Rule().label() == ""
    assert Rule(0.01).label() == "@0.01"
    assert Rule(0.1 + 0.2).label() == "@0.30000000000000004"


def test_budget_hand_values():
    # 2*1/0.25 = 8 exactly; ceil(2*ln(1000)/0.25) = ceil(55.26) = 56
    assert round_budget(0.5, 1.0) == 8
    assert round_budget(0.5, math.log(1.0 / 1e-3)) == 56


def test_budget_rejects_bad_inputs():
    with pytest.raises(ValueError):
        round_budget(0.0, 1.0)
    with pytest.raises(ValueError):
        round_budget(-0.1, 1.0)
    with pytest.raises(OverflowError):
        round_budget(5e-200, math.log(1e300))


@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1e-12, max_value=0.999),
)
def test_budget_gives_radius_of_at_most_half_g(g, delta):
    log_inv_delta = math.log(1.0 / delta)
    n = round_budget(g, log_inv_delta)
    # the policy's inline radius; the tolerance covers float rounding in the
    # budget formula's last ulps
    assert math.sqrt(log_inv_delta / (2.0 * n)) <= g / 2.0 * (1.0 + 1e-12)
