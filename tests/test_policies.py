import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from constbandit import (
    ADAPTIVE_RATIO,
    ARM_DONE,
    COMMITTED,
    CONTINUE,
    ConstSpacePolicy,
    DoublingPolicy,
    GEOMETRIC,
    PolicyConfig,
    ROUND_DONE,
    RULED_OUT,
    RoundRecord,
    Ucb1Policy,
    default_delta,
    make_policy,
    polylog,
)
from constbandit.policies import EXPLOIT, EXPLORE


def feed(policy, rewards_by_arm, until=None):
    """Drive a policy with deterministic per-arm rewards; returns the reports."""
    reports = []
    while policy.t < policy.horizon:
        arm = policy.select_arm()
        reports.append(policy.observe(rewards_by_arm[arm]))
        if until is not None and until(policy, reports[-1]):
            break
    return reports


def test_reset_computes_budget_from_horizon():
    policy = ConstSpacePolicy(10, 1000)
    assert policy.delta == pytest.approx(1e-9)
    assert policy.g == 0.5
    # ceil(2 * ln(1e9) / 0.25) = 166 by direct evaluation
    assert policy.budget == math.ceil(2.0 * math.log(1e9) / 0.25) == 166
    assert policy.phase == EXPLORE and policy.r == 1 and policy.scan_arm == 0


def test_reset_single_arm_commits_immediately():
    policy = ConstSpacePolicy(1, 100)
    assert policy.phase == EXPLOIT and policy.best == 0
    assert policy.select_arm() == 0


def test_reset_validation():
    with pytest.raises(ValueError):
        ConstSpacePolicy(0, 100)
    with pytest.raises(ValueError):
        ConstSpacePolicy(2, 0)
    with pytest.raises(ValueError):
        ConstSpacePolicy(2, 100, delta=1.0)
    with pytest.raises(ValueError):
        make_policy(PolicyConfig("ucb1"), 0, 10)


def test_delta_clamped_for_tiny_horizon():
    assert default_delta(1) == 0.125
    assert ConstSpacePolicy(2, 1).delta == 0.125


def test_select_arm_scans_and_freezes():
    policy = ConstSpacePolicy(3, 1000)
    assert policy.select_arm() == 0  # scan starts at the first arm
    policy.observe(1.0)
    assert policy.select_arm() == 0  # scan pins the current arm mid-budget
    exploit = ConstSpacePolicy(3, 1000)
    exploit.phase = EXPLOIT
    exploit.best = 2
    assert exploit.select_arm() == 2


def test_observe_incremental_mean():
    policy = ConstSpacePolicy(2, 1000)
    policy.observe(1.0)
    assert policy.mean_cur == 1.0  # first sample
    policy.observe(0.0)
    assert policy.mean_cur == 0.5  # mean of two samples


def test_observe_validation():
    policy = ConstSpacePolicy(2, 5)
    with pytest.raises(ValueError):
        policy.observe(1.5)
    with pytest.raises(ValueError):
        policy.observe(float("nan"))
    for _ in range(5):
        policy.observe(0.5)
    with pytest.raises(RuntimeError):
        policy.observe(0.5)  # horizon exhausted


def test_incremental_mean_drift_bounded():
    # The running-mean recurrence rounds once per multiply and divide, so the
    # worst drift against the exactly rounded batch mean grows at most one
    # ulp per sample. Constant inputs are the adversarial case: every step
    # rounds the same way.
    import random

    n = 10**6
    for value, seed in ((0.1, None), (None, 20240601)):
        rng = random.Random(seed)
        policy = ConstSpacePolicy(2, n + 1)
        policy.budget = n + 1  # hold the scan on arm 0 for the whole run
        samples = []
        for _ in range(n):
            v = value if value is not None else float(rng.random() < 0.37)
            samples.append(v)
            policy.observe(v)
        assert policy.scan_arm == 0 and policy.n == n
        batch = math.fsum(samples) / n
        assert abs(policy.mean_cur - batch) <= n * math.ulp(batch)


def test_round_one_never_rules_out():
    # all-zero rewards keep every upper confidence value at its smallest;
    # with rule-out disabled in round 1 each arm still runs its full budget
    policy = ConstSpacePolicy(3, 10**6)
    seen = []
    while policy.r == 1 and policy.phase == EXPLORE:
        seen.append(policy.observe(0.0))
        if isinstance(seen[-1], RoundRecord):
            break
    assert RULED_OUT not in seen
    counts = [r for r in seen if r == ARM_DONE]
    assert len(counts) == 2  # arms 0 and 1; arm 2 closes the round


def test_round_one_ties_keep_scan_order():
    policy = ConstSpacePolicy(3, 10**6)
    report = None
    while not isinstance(report, RoundRecord):
        report = policy.observe(0.5)
    assert report.best == 0 and report.second == 1  # earlier arm keeps its slot


def test_two_arm_walk_rule_out_and_commit():
    """Deterministic walk on per-arm constants 0.9 / 0.45 with T = 10^4.

    Round 1 separates nothing (gap 0.45 <= g1 = 0.5). Round 2's reference
    threshold is 0.9 - 0.25 = 0.65; arm 1 is abandoned at the first pull
    count n with 0.45 + sqrt(ln(1e12)/(2n)) < 0.65, then the round closes
    separated and the policy commits to arm 0.
    """
    rewards = {0: 0.9, 1: 0.45}
    policy = ConstSpacePolicy(2, 10**4)
    assert policy.delta == pytest.approx(1e-12)
    n1 = policy.budget
    assert n1 == 222

    reports = feed(policy, rewards, until=lambda p, rep: isinstance(rep, RoundRecord))
    close1 = reports[-1]
    assert close1.event == ROUND_DONE
    assert close1.best == 0 and close1.second == 1
    assert close1.mean_best == pytest.approx(0.9)
    assert policy.r == 2 and policy.g == 0.25 and policy.g_prev == 0.5
    assert policy.reference == pytest.approx(0.65)

    # expected abandonment pull count, computed from the inequality directly
    log_inv = math.log(1e12)
    expected_n = next(
        n for n in range(1, 10**6) if 0.45 + math.sqrt(log_inv / (2 * n)) < 0.65
    )
    assert expected_n == 346

    reports = feed(policy, rewards, until=lambda p, rep: isinstance(rep, RoundRecord))
    mid = [rep for rep in reports if rep is RULED_OUT]
    assert not mid  # arm 1 is last in the scan, so its rule-out closes the round
    close2 = reports[-1]
    assert close2.event == COMMITTED and close2.separated
    assert policy.phase == EXPLOIT and policy.best == 0
    # round 2 observes: full budget on arm 0, then arm 1 until abandonment
    arm1_pulls = len(reports) - close2.budget
    assert arm1_pulls == expected_n


def test_mid_scan_rule_out_reports_event():
    # make the ruled-out arm non-final so the event is visible directly
    rewards = {0: 0.45, 1: 0.9}
    policy = ConstSpacePolicy(2, 10**4)
    feed(policy, rewards, until=lambda p, rep: isinstance(rep, RoundRecord))
    reports = feed(policy, rewards, until=lambda p, rep: rep is RULED_OUT)
    assert reports[-1] is RULED_OUT
    assert policy.scan_arm == 1 and policy.n == 0  # moved on to the next arm


def test_geometric_halving_between_rounds():
    policy = ConstSpacePolicy(2, 10**6)
    rewards = {0: 0.55, 1: 0.45}
    gs = [policy.g]
    for _ in range(3):
        feed(policy, rewards, until=lambda p, rep: isinstance(rep, RoundRecord))
        gs.append(policy.g)
    assert gs[:4] == [0.5, 0.25, 0.125, 0.0625]


def test_state_words_constant_in_arm_count():
    counts = {K: ConstSpacePolicy(K, 1000).state_words() for K in (2, 10, 1000, 100000)}
    assert set(counts.values()) == {20}
    for schedule in (GEOMETRIC, polylog(0.5)):
        assert ConstSpacePolicy(5, 100, schedule).state_words() == 20


def test_registers_are_scalar_words():
    policy = ConstSpacePolicy(3, 100)
    for name in ConstSpacePolicy.REGISTERS:
        value = getattr(policy, name)
        assert isinstance(value, (int, float, bool, str)) or value is None


def test_undeclared_attribute_is_rejected():
    # A stray per-arm table cannot hide from the register count.
    policy = ConstSpacePolicy(4, 100)
    with pytest.raises(AttributeError):
        policy.arm_means = [0.0] * 4
    wrapper = DoublingPolicy(4)
    with pytest.raises(AttributeError):
        wrapper.arm_means = [0.0] * 4
    with pytest.raises(AttributeError):
        Ucb1Policy(4).arm_sums = [0.0] * 4
    assert set(ConstSpacePolicy.__slots__) == set(ConstSpacePolicy.REGISTERS) | {"n_arms", "schedule"}
    own = set(DoublingPolicy.__slots__) - {"n_arms", "schedule", "inner"}
    assert own == {"level", "level_horizon", "t_total"}
    assert wrapper.state_words() - wrapper.inner.state_words() == len(own) == 3


def test_register_holding_a_container_fails_the_count():
    policy = ConstSpacePolicy(4, 100)
    policy.best = [0, 1, 2, 3]
    with pytest.raises(TypeError, match="best"):
        policy.state_words()
    wrapper = DoublingPolicy(4)
    wrapper.level = (0, 1)
    with pytest.raises(TypeError, match="level"):
        wrapper.state_words()


def test_ucb1_state_words_grow_linearly():
    # both tables, t, the stored next arm, bound and until
    assert Ucb1Policy(100).state_words() == 204
    assert Ucb1Policy(2).state_words() == 8
    assert DoublingPolicy(7).state_words() == ConstSpacePolicy(7, 100).state_words() + 3
    assert DoublingPolicy(7).state_words() == 23


def test_ucb1_initial_sweep_and_tiebreak():
    policy = Ucb1Policy(4)
    for expected in range(4):
        assert policy.select_arm() == expected
        policy.observe(0.5)
    # identical means and counts: lowest arm id wins
    assert policy.select_arm() == 0


def test_ucb1_prefers_higher_index():
    policy = Ucb1Policy(2)
    rewards = (0.1, 0.9)
    for _ in range(3):
        policy.observe(rewards[policy.select_arm()])
    assert policy.counts == [1, 2] and policy.t == 3
    c = 2.0 * math.log(3)
    assert 0.9 + math.sqrt(c / 2) > 0.1 + math.sqrt(c / 1)  # arm 1 leads, not by tie-break
    assert policy.select_arm() == 1


def test_ucb1_observe_updates_tables():
    policy = Ucb1Policy(2)
    policy.observe(1.0)  # sweep arm 0
    policy.observe(0.0)  # sweep arm 1
    assert policy.counts == [1, 1]
    assert policy.means == [1.0, 0.0]
    with pytest.raises(ValueError):
        policy.observe(2.0)


class NumpyUcb1:
    """The numpy UCB1 index, recomputed on every ``select_arm``; reference
    for ``Ucb1Policy``, whose loop must pick the same arm bit for bit."""

    def __init__(self, n_arms):
        self.n_arms = n_arms
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.means = np.zeros(n_arms, dtype=np.float64)
        self.t = 0

    def select_arm(self):
        if self.t < self.n_arms:
            return self.t
        index = self.means + np.sqrt((2.0 * math.log(self.t)) / self.counts)
        return int(np.argmax(index))

    def observe(self, reward):
        arm = self.select_arm()
        n = int(self.counts[arm]) + 1
        self.counts[arm] = n
        self.means[arm] = (self.means[arm] * (n - 1) + reward) / n
        self.t += 1


_REWARD_SEQUENCES = st.one_of(
    st.lists(st.floats(0.0, 1.0), max_size=600),
    st.lists(st.sampled_from((0.0, 1.0)), max_size=600),
    # all equal: every full sweep ends in an exact tie
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 600)).map(lambda p: [p[0]] * p[1]),
)


@given(window=st.sampled_from((1, 2, 7, 64)), n_arms=st.integers(1, 20), rewards=_REWARD_SEQUENCES)
@example(window=1, n_arms=2, rewards=[0.5] * 8)
def test_ucb1_matches_numpy_index(window, n_arms, rewards):
    # Sequences of up to 600 pulls pass several windows of each size, so
    # the skip runs on stale bounds as well as fresh ones. In the example,
    # at t = 4 = until the pulled arm 1's index equals arm 0's bound exactly,
    # and only the strict compare hands the tie to arm 0.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Ucb1Policy, "WINDOW", window)
        policy, reference = Ucb1Policy(n_arms), NumpyUcb1(n_arms)
        for reward in rewards:
            arm = reference.select_arm()
            assert policy.select_arm() == arm
            report = policy.observe(reward)
            reference.observe(reward)
            assert report == (CONTINUE if reference.select_arm() == arm else ARM_DONE)
    assert policy.select_arm() == reference.select_arm()
    assert policy.t == reference.t
    assert policy.counts == reference.counts.tolist()
    assert policy.means == reference.means.tolist()


def test_doubling_level_schedule():
    policy = DoublingPolicy(2)
    assert policy.level == 0 and policy.level_horizon == 10
    assert policy.delta == pytest.approx(1e-3)
    for _ in range(10):
        policy.observe(0.5)
    assert policy.level == 1 and policy.level_horizon == 100
    assert policy.delta == pytest.approx(1e-6)
    for _ in range(100):
        policy.observe(0.5)
    assert policy.level == 2 and policy.level_horizon == 10**4
    assert policy.t_total == 110


def test_doubling_bulk_exploitation_rolls_level():
    policy = DoublingPolicy(1)  # a single arm commits at once in every level
    levels = policy.levels()
    first = next(levels)
    first.advance_exploitation(4)
    assert policy.inner is first and policy.t_total == 0  # counted at the level's end
    first.advance_exploitation(6)
    second = next(levels)
    assert policy.level == 1 and second is policy.inner and second is not first
    assert policy.t_total == 10
    with pytest.raises(ValueError):
        second.advance_exploitation(101)
    second.advance_exploitation(7)
    assert next(levels, None) is None  # the level did not finish: no next one
    assert policy.level == 1 and policy.t_total == 17


def test_doubling_levels_cover_horizon():
    # A single arm commits at construction, so every level exploits in bulk.
    total_T = 10**4
    policy = DoublingPolicy(1)
    horizons = []
    done = 0
    for inner in policy.levels():
        horizons.append(inner.horizon)
        steps = min(inner.horizon, total_T - done)
        inner.advance_exploitation(steps)
        done += steps
    assert horizons == [10, 100, 10**4]
    assert policy.t_total == total_T and policy.level == 2
    assert len(horizons) <= math.log2(math.log10(total_T)) + 1


def step_checking_segments(policy, reward_at, steps):
    """Step a known-horizon policy for up to ``steps`` pulls, asserting the
    scan contract the episode loop relies on: while exploring with
    ``t < horizon``, ``select_arm()`` keeps its arm after every CONTINUE,
    and after every explore pull, a transition too, ``mean_cur`` equals the
    pulled arm's running mean in the round, kept here by its own recurrence
    (so an arm's first pull leaves exactly its reward there), and ``radius``
    equals sqrt(ln(1/delta) / 2n) at the arm's pulls ``n`` in the round.
    ``reference`` is -inf until a round closes without committing, and
    then that round's ``mean_best - g / 2``. Returns the pulls stepped and
    the transition reports; a committed tail is skipped in bulk."""
    pulls, transitions = 0, []
    n, mean = 0, 0.0  # the scanned arm's pulls and running mean in the round
    reference = -math.inf
    assert policy.reference == reference
    while pulls < steps and policy.exploring:
        arm = policy.select_arm()
        reward = reward_at(arm, pulls)
        report = policy.observe(reward)
        pulls += 1
        n += 1
        mean = (mean * (n - 1) + reward) / n
        assert policy.mean_cur == mean, (pulls, report)
        if n == 1:
            assert policy.mean_cur == reward
        assert policy.radius == math.sqrt(policy.log_inv_delta / (2.0 * n)), (pulls, report)
        if type(report) is RoundRecord and report.event == ROUND_DONE:
            reference = report.mean_best - report.g / 2.0
        assert policy.reference == reference, (pulls, report)
        if report is CONTINUE:
            if policy.t < policy.horizon:
                assert policy.exploring and policy.select_arm() == arm
        else:
            transitions.append(report)
            n, mean = 0, 0.0
    if pulls < steps and not policy.exploring:
        policy.advance_exploitation(min(steps - pulls, policy.horizon - policy.t))
    return pulls, transitions


_SEGMENT_SCHEDULES = st.sampled_from([GEOMETRIC, polylog(0.5), ADAPTIVE_RATIO])
# Per-arm centres plus a cycled noise sequence, clipped to [0, 1]: arms differ
# enough to be ruled out and to commit, and rewards still vary pull to pull.
_SEGMENT_REWARDS = dict(
    centres=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    noise=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=40),
)


def _reward_at(centres, noise):
    return lambda arm, i: min(1.0, max(0.0, centres[arm] + noise[i % len(noise)]))


@given(
    n_arms=st.integers(2, 6),
    schedule=_SEGMENT_SCHEDULES,
    delta=st.sampled_from([0.05, 0.2, 0.5]),
    horizon=st.integers(1, 3000),
    **_SEGMENT_REWARDS,
)
def test_select_arm_holds_between_transitions(n_arms, schedule, delta, horizon, centres, noise):
    policy = ConstSpacePolicy(n_arms, horizon, schedule, delta=delta)
    pulls, _ = step_checking_segments(policy, _reward_at(centres, noise), horizon)
    assert policy.t == horizon and pulls <= horizon


@given(
    n_arms=st.integers(2, 6),
    schedule=_SEGMENT_SCHEDULES,
    horizon=st.integers(1, 2000),
    **_SEGMENT_REWARDS,
)
def test_doubling_levels_hold_select_arm_between_transitions(
    n_arms, schedule, horizon, centres, noise
):
    reward_at = _reward_at(centres, noise)
    policy = DoublingPolicy(n_arms, schedule)
    done = 0
    for inner in policy.levels():
        steps = min(inner.horizon, horizon - done)
        step_checking_segments(inner, reward_at, steps)
        done += steps
    assert done == horizon == policy.t_total


def test_segment_contract_sees_rule_outs_and_commits():
    # the property tests above are vacuous unless scans end in every way
    policy = ConstSpacePolicy(4, 3000, delta=0.5)
    pulls, transitions = step_checking_segments(
        policy, _reward_at([0.9, 0.1, 0.5, 0.2], [0.1, -0.1]), 3000
    )
    assert RULED_OUT in transitions and ARM_DONE in transitions
    assert any(type(rep) is RoundRecord and rep.event == ROUND_DONE for rep in transitions)
    assert transitions[-1].event == COMMITTED and pulls < 3000


def test_make_policy_dispatch():
    assert isinstance(make_policy(PolicyConfig("ucb1"), 3, 100), Ucb1Policy)
    assert isinstance(make_policy(PolicyConfig("doubling"), 3, 100), DoublingPolicy)
    assert isinstance(make_policy(PolicyConfig("constspace"), 3, 100), ConstSpacePolicy)
    policy = make_policy(PolicyConfig("constspace", delta_override=1e-4), 3, 100)
    assert policy.delta == 1e-4
    with pytest.raises(ValueError):
        make_policy(PolicyConfig("doubling", delta_override=1e-4), 3, 100)
    with pytest.raises(ValueError):
        PolicyConfig("thompson")
