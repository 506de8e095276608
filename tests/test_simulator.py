import concurrent.futures
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import astuple, replace
from itertools import groupby, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import constbandit.policies as policies
import constbandit.simulator as simulator
from constbandit import (
    ADAPTIVE_RATIO,
    CONTINUE,
    BanditInstance,
    ConstSpacePolicy,
    DoublingPolicy,
    GEOMETRIC,
    PolicyConfig,
    RewardStream,
    RoundRecord,
    Rule,
    Ucb1Policy,
    beta_arm,
    bernoulli,
    check_lemma_assertions,
    make_custom,
    make_linear_gaps,
    make_policy,
    memory_audit,
    next_precision,
    point_mass,
    polylog,
    pseudo_regret,
    run_episode,
    run_suite,
)
from constbandit.policies import EXPLOIT, EXPLORE
from constbandit.simulator import EpisodeTrace, LemmaReport


def reference_run(means, horizon, schedule=GEOMETRIC):
    """Straight nested-loop rendition of the round-based policy for
    deterministic (point-mass) rewards; control flow independent of the
    package's state machine, used as its oracle."""
    K = len(means)
    delta = Rule().delta_for(horizon)
    log_inv = math.log(1.0 / delta)
    g = 0.5
    g_prev = 0.5
    t = 0
    r = 1
    pulls = [0] * K
    prev_mean = 0.0
    rounds = []
    frozen = False
    committed = None
    while True:
        budget = math.ceil(2.0 * log_inv / (g * g))
        best = second = None
        mean_best = mean_second = 0.0
        round_pulls = [0] * K
        for i in range(K):
            mean = 0.0
            n = 0
            while n < budget:
                if t >= horizon:
                    frozen = True
                    break
                v = means[i]
                t += 1
                n += 1
                round_pulls[i] += 1
                pulls[i] += 1
                mean = (mean * (n - 1) + v) / n
                if r > 1 and mean + math.sqrt(log_inv / (2.0 * n)) < prev_mean - g_prev / 2.0:
                    break
            if frozen:
                break
            if best is None or mean > mean_best:
                second, mean_second = best, mean_best
                best, mean_best = i, mean
            elif second is None or mean > mean_second:
                second, mean_second = i, mean
        if frozen:
            break
        rounds.append((r, g, budget, tuple(round_pulls), best))
        if mean_best - g / 2.0 > mean_second + g / 2.0 or t >= horizon:
            committed = best
            break
        prev_mean = mean_best
        g_prev = g
        g = next_precision(g, schedule)
        r += 1
    if committed is not None:
        pulls[committed] += horizon - t
    return pulls, rounds, committed


def test_single_arm_episode():
    inst = make_custom([0.2])
    trace = run_episode(PolicyConfig("constspace"), inst, 50, 0)
    assert trace.pull_counts == [50]
    assert pseudo_regret(trace, inst) == 0.0
    assert trace.committed_arm == 0 and not trace.frozen


@pytest.mark.parametrize(
    "means,horizon,schedule",
    [
        ([0.9, 0.45], 10**4, GEOMETRIC),
        ([0.45, 0.9], 10**4, GEOMETRIC),
        ([0.9, 0.7, 0.2], 2 * 10**4, GEOMETRIC),
        ([0.9, 0.45], 10**4, polylog(0.5)),
        ([0.8, 0.75, 0.3], 1500, GEOMETRIC),  # horizon freeze mid-exploration
    ],
)
def test_point_mass_runs_match_reference(means, horizon, schedule):
    inst = make_custom(means, kind="point")
    cfg = PolicyConfig("constspace", schedule)
    trace = run_episode(cfg, inst, horizon, seed=0)
    pulls, rounds, committed = reference_run(means, horizon, schedule)
    assert trace.pull_counts == pulls
    assert trace.committed_arm == committed
    assert len(trace.round_log) == len(rounds)
    for rec, (r, g, budget, round_pulls, best) in zip(trace.round_log, rounds):
        assert (rec.r, rec.g, rec.budget, rec.pulls, rec.best) == (r, g, budget, round_pulls, best)
    assert trace.r_max_observed == max(0, len(rounds) - 1)
    assert trace.clean_event  # point-mass estimates equal their means


def test_point_mass_two_round_structure():
    # round 1 abandons nothing; round 2 abandons the weak arm mid-scan
    inst = make_custom([0.9, 0.45], kind="point")
    trace = run_episode(PolicyConfig("constspace"), inst, 10**4, 0)
    first, second = trace.round_log
    assert first.event == "round_done" and first.pulls == (222, 222)
    assert second.event == "committed" and second.pulls[0] == 885
    assert second.pulls[1] == 346 < second.budget  # abandoned early
    assert trace.committed_arm == 0 and trace.separated


@pytest.mark.parametrize("horizon", [16, 17])
def test_checkpoint_transition_and_stop_on_one_pull(horizon):
    # delta 0.4 gives round 1 a budget of ceil(8 ln 2.5) = 8, so arm 0's
    # scan ends on checkpoint 8 and the round closes on checkpoint 16. At
    # T = 16 that pull is also the level's stop; at T = 17 the stop and the
    # last checkpoint fall on round 2's first pull instead.
    cfg = PolicyConfig("constspace", rule=Rule(0.4))
    trace = assert_matches_step_driven(cfg, make_custom([0.9, 0.6]), horizon, 0)
    assert trace.round_log[0].budget == 8 and trace.round_log[0].pulls == (8, 8)
    expected = [1, 2, 4, 8, 16] + ([17] if horizon == 17 else [])
    assert [tick for tick, _ in trace.trajectory] == expected
    assert trace.steps == sum(trace.pull_counts) == horizon


def step_driven(cfg, instance, horizon, seed):
    """Oracle for ``run_episode``: select, draw and observe for every one of
    ``horizon`` steps, with no bulk exploitation fast-forward.

    From its own step log it rebuilds what the harness reports. For the
    doubling wrapper it chains its own ``ConstSpacePolicy`` levels, never
    the wrapper's: T_0 = ``DoublingPolicy.INITIAL_HORIZON``, squared with a
    fresh policy as soon as a level has run its horizon, logging (level,
    level horizon, steps run) per level. Per round record: the level it
    closed in and each arm's pulls in the round. The largest number of
    rounds closed in one level, counted from those records. The clean event:
    on every explore pull, the arm's running mean in the round,
    m_n = (m_{n-1} (n - 1) + reward) / n, stays within sqrt(ln(1/delta) / (2n))
    of its true mean, with the delta of the pull's level. Returns the policy
    it stepped last too, for its final state."""
    K = instance.n_arms
    doubling = cfg.name == "doubling"
    level, level_horizon = 0, DoublingPolicy.INITIAL_HORIZON
    policy = ConstSpacePolicy(K, level_horizon, cfg.schedule) if doubling else make_policy(cfg, K, horizon)
    stream = RewardStream(instance, seed)
    actions, records = [], []
    level_log = [] if doubling else None
    level_steps = 0
    clean = True
    pulls, means = [0] * K, [0.0] * K
    for _ in range(horizon):
        exploring = getattr(policy, "phase", None) == EXPLORE
        arm = policy.select_arm()
        reward = stream.draw(arm)
        report = policy.observe(reward)
        actions.append(arm)
        if exploring:
            n = pulls[arm] + 1
            pulls[arm] = n
            means[arm] = (means[arm] * (n - 1) + reward) / n
            radius = math.sqrt(policy.log_inv_delta / (2.0 * n))
            if abs(means[arm] - instance.means[arm]) > radius:
                clean = False
        if isinstance(report, RoundRecord):
            records.append(replace(report, level=level, pulls=tuple(pulls)))
            pulls, means = [0] * K, [0.0] * K
        level_steps += 1
        if doubling and policy.t == level_horizon:
            level_log.append((level, level_horizon, level_steps))
            level, level_horizon, level_steps = level + 1, level_horizon**2, 0
            policy = ConstSpacePolicy(K, level_horizon, cfg.schedule)
            pulls, means = [0] * K, [0.0] * K
    if doubling:
        level_log.append((level, level_horizon, level_steps))
    committed = policy.best if getattr(policy, "phase", None) == EXPLOIT else None
    most_rounds = max(Counter(rec.level for rec in records).values(), default=0)
    return actions, committed, records, level_log, clean, most_rounds, policy


def assert_matches_step_driven(cfg, inst, horizon, seed):
    made = []

    def keep_policy(*args):  # the policy run_episode drives, for its final state
        made.append(make_policy(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "make_policy", keep_policy)
        trace = run_episode(cfg, inst, horizon, seed, action_log=True)
    actions, committed, records, level_log, clean, most_rounds, oracle = step_driven(cfg, inst, horizon, seed)
    assert trace.action_log == actions
    assert trace.pull_counts == [actions.count(arm) for arm in range(inst.n_arms)]
    assert trace.committed_arm == committed
    if cfg.name == "ucb1":  # no rounds, so nothing to commit or freeze and no clean event
        assert trace.clean_event is None and trace.r_max_observed is None
        assert trace.round_log is None and records == [] and not trace.frozen
    else:
        assert trace.clean_event == clean
        assert trace.frozen == (committed is None)
        assert trace.round_log == records
        assert trace.r_max_observed == max(0, most_rounds - 1)
    assert trace.level_log == level_log
    if cfg.name == "doubling":
        (policy,) = made
        final = (policy.level, policy.level_horizon, policy.t_total)
        oracle_level, oracle_level_horizon, _ = level_log[-1]
        assert final == (oracle_level, oracle_level_horizon, sum(steps for _, _, steps in level_log))
        assert policy.t_total == horizon
    # Every register, mid-arm ones and UCB1's tables included, as stepping leaves it.
    (policy,) = made
    inner = policy.inner if cfg.name == "doubling" else policy
    registers = ConstSpacePolicy.REGISTERS
    if cfg.name == "ucb1":
        registers = ("counts", "means", "t", "arm", "rival", "bound", "bound2", "until")
    # repr, so a type counts too: 5.0 for 5 fails, which == would pass
    assert [repr(getattr(inner, r)) for r in registers] == [repr(getattr(oracle, r)) for r in registers]
    ticks = sorted({min(2**k, horizon) for k in range(horizon.bit_length() + 1)})
    assert [tick for tick, _ in trace.trajectory] == ticks
    for tick, regret in trace.trajectory:  # pseudo_regret of the oracle's pulls so far, bit for bit
        counts = Counter(actions[:tick])
        assert regret == math.fsum(counts[arm] * gap for arm, gap in enumerate(inst.gaps)), tick
    return trace


@pytest.mark.parametrize(
    "script,clean",
    [
        pytest.param((0.76,) * 5 + (1.0,), False, id="1.0-False"),
        pytest.param((0.76,) * 5 + (0.5,), True, id="0.5-True"),
        pytest.param((1.0, 1.0, 0.0, 0.0, 0.5, 0.5), False, id="mid_arm-False"),
        pytest.param((0.5, 0.75, 0.25, 0.5, 0.5, 0.5), True, id="mid_arm-True"),
    ],
)
def test_clean_check_covers_the_pull_that_ends_an_arm(monkeypatch, script, clean):
    # Two arms of mean 0.5 with delta 0.5: round 1 gives each arm a budget
    # of 6, and T = 12 ends the episode with that round. In the first two
    # scripts arm 0's running mean is 0.76 after five pulls, inside the
    # radius sqrt(ln 2 / 10) = 0.263. A sixth reward of 1.0 moves it to 0.8,
    # outside sqrt(ln 2 / 12) = 0.240, so the only breach falls on the pull
    # that reports ARM_DONE; a sixth 0.5 gives 0.717 and keeps the episode
    # clean. The mid-arm breach is on CONTINUE pulls 2 and 3 (means 1.0 and
    # 0.667 against radii 0.416 and 0.340); both mid-arm scripts end on 0.5.
    def scripted_draw(self, arm):
        drawn = vars(self).setdefault("scripted_draws", [0, 0])
        drawn[arm] += 1
        return script[drawn[0] - 1] if arm == 0 else 0.5

    monkeypatch.setattr(RewardStream, "draw", scripted_draw)
    cfg = PolicyConfig("constspace", rule=Rule(0.5))
    trace = assert_matches_step_driven(cfg, make_custom([0.5, 0.5], kind="point"), 12, 0)
    assert trace.clean_event is clean
    (record,) = trace.round_log
    assert record.budget == 6 and record.pulls == (6, 6)


# Point arms 0.9, 0.1, 0.8 under delta 0.5: round 1 pulls each arm 6 times
# (t = 1..18) and does not separate, so round 2 has budget 23 and reference
# 0.65. Arm 0 takes t = 19..41, arm 1 is ruled out on its second pull
# (0.1 + sqrt(ln 2 / 4) < 0.65) at t = 43, and arm 2 takes t = 44..66.
_EDGE_INSTANCE = make_custom([0.9, 0.1, 0.8], kind="point")


@pytest.mark.parametrize(
    "horizon,last_arm_pulls",
    [
        (5, 5),  # one pull short of round 1's budget
        (6, 6),  # exactly at it
        (40, 22),  # one pull short of round 2's budget
        (41, 23),  # exactly at it: ARM_DONE on the level's stop
        (42, 1),  # mid-way through the arm that is ruled out
        (43, 2),  # on the rule-out pull
        (66, 23),  # on the pull that closes round 2
    ],
)
def test_horizon_ends_at_an_arm_scan_edge(horizon, last_arm_pulls):
    cfg = PolicyConfig("constspace", rule=Rule(0.5))
    trace = assert_matches_step_driven(cfg, _EDGE_INSTANCE, horizon, 0)
    assert [len(list(run)) for _, run in groupby(trace.action_log)][-1] == last_arm_pulls


@pytest.mark.parametrize("bad_pull", [3, 6])  # a CONTINUE pull; the pull that ends arm 0
@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_reward_outside_unit_interval_raises(monkeypatch, bad_pull, bad):
    def bad_draw(self, arm):
        drawn = vars(self).setdefault("drawn", [0, 0])
        drawn[arm] += 1
        return bad if (arm, drawn[arm]) == (0, bad_pull) else 0.5

    monkeypatch.setattr(RewardStream, "draw", bad_draw)
    cfg, inst = PolicyConfig("constspace", rule=Rule(0.5)), make_custom([0.5, 0.5], kind="point")
    with pytest.raises(ValueError, match=r"reward must lie in \[0, 1\]") as raised:
        run_episode(cfg, inst, 12, 0)
    with pytest.raises(ValueError) as expected:
        step_driven(cfg, inst, 12, 0)
    assert str(raised.value) == str(expected.value)


# Arm 0's pulls 1 and 2 reach observe (the first pass, then a pull the scan's
# index test does not apply); the scan applies pulls 31 and 300 itself.
@pytest.mark.parametrize("bad_pull", [1, 2, 31, 300])
def test_ucb1_reward_outside_unit_interval_raises(monkeypatch, bad_pull):
    def bad_draw(self, arm):
        drawn = vars(self).setdefault("drawn", [0, 0])
        drawn[arm] += 1
        return 1.5 if (arm, drawn[arm]) == (0, bad_pull) else (0.9, 0.2)[arm]

    monkeypatch.setattr(RewardStream, "draw", bad_draw)
    cfg, inst = PolicyConfig("ucb1"), make_custom([0.9, 0.2], kind="point")
    with pytest.raises(ValueError, match=r"reward must lie in \[0, 1\]") as raised:
        run_episode(cfg, inst, 1000, 0)
    with pytest.raises(ValueError) as expected:
        step_driven(cfg, inst, 1000, 0)
    assert str(raised.value) == str(expected.value)


def _script_arm_0(monkeypatch, rewards):
    """Arm 0's i-th draw (from 1) returns ``rewards(i)``; every other arm draws 0.5."""

    def scripted_draw(self, arm):
        drawn = vars(self).setdefault("scripted_draws", Counter())
        drawn[arm] += 1
        return rewards(drawn[arm]) if arm == 0 else 0.5

    monkeypatch.setattr(RewardStream, "draw", scripted_draw)


def _breaches(rewards, mu, log_inv_delta, pulls):
    """Pulls 1..``pulls`` of one arm's scan whose running mean leaves its radius of ``mu``."""
    mean, out = 0.0, []
    for n in range(1, pulls + 1):
        mean = (mean * (n - 1) + rewards(n)) / n
        if abs(mean - mu) > math.sqrt(log_inv_delta / (2.0 * n)):
            out.append(n)
    return out


def _burst(zeros, ones, tail=()):
    """``zeros`` rewards of 0.0, ``ones`` of 1.0, then ``tail``, then 0.0."""
    script = (0.0,) * zeros + (1.0,) * ones + tuple(tail)
    return lambda i: script[i - 1] if i <= len(script) else 0.0


@pytest.mark.parametrize(
    "rewards,horizon,breaches",
    [
        # 22/61 = 0.361 > 0.337 on pull 61, and the mean is back inside from
        # 22/71 = 0.310 < 0.312 on pull 71.
        pytest.param(_burst(40, 22), 222, list(range(61, 71)), id="burst_recovers"),
        # 27.6/110 = 0.2509 > 0.2506, then a 0.0 on the budget pull gives
        # 27.6/111 = 0.2486 < 0.2495.
        pytest.param(_burst(82, 27, (0.6,)), 222, [110], id="budget_pull"),
        # 23/73 = 0.315 > 0.308 on pull 73, the episode's last.
        pytest.param(_burst(50, 30), 73, [73], id="level_stop"),
    ],
)
def test_clean_check_runs_on_every_pull_where_it_can_fail(monkeypatch, rewards, horizon, breaches):
    # Arm 0 has true mean 0 and delta 1e-6 gives round 1 a budget of
    # ceil(8 ln 1e6) = 111, radius sqrt(ln 1e6 / 2n), so zeros keep arm 0's
    # scan inside and a run of ones moves it out on pulls between two checks
    # a doubled check window would make.
    _script_arm_0(monkeypatch, rewards)
    cfg = PolicyConfig("constspace", rule=Rule(1e-6))
    trace = assert_matches_step_driven(cfg, make_custom([0.0, 0.5], kind="point"), horizon, 0)
    assert _breaches(rewards, 0.0, math.log(1e6), min(horizon, 111)) == breaches
    assert trace.clean_event is False
    if horizon > 111:
        assert trace.round_log[0].pulls == (111, 111)


@pytest.mark.parametrize("switch", [150, 200, 250])
def test_rule_out_lands_on_its_first_pull_after_a_switch_to_zeros(monkeypatch, switch):
    # Point arms 0.9 and 0.5 under delta 1e-6: round 1 pulls each 111 times
    # and does not separate, so round 2 has budget 443 and reference about
    # 0.65. In round 2 arm 0's rewards drop from 0.9 to 0.0 after ``switch``
    # pulls, the fastest fall a mean can take, and it must be ruled out on
    # the first pull whose mean plus radius is below the reference.
    def rewards(i):
        return 0.9 if i <= 111 + switch else 0.0

    _script_arm_0(monkeypatch, rewards)
    cfg = PolicyConfig("constspace", rule=Rule(1e-6))
    trace = assert_matches_step_driven(cfg, make_custom([0.9, 0.5], kind="point"), 1100, 0)
    first, second = trace.round_log[:2]
    reference, log_inv_delta = first.mean_best - first.g / 2.0, math.log(1e6)
    mean, n = 0.0, 0
    while n == 0 or mean + math.sqrt(log_inv_delta / (2.0 * n)) >= reference:
        n += 1
        mean = (mean * (n - 1) + rewards(111 + n)) / n
    assert second.pulls[0] == n < second.budget == 443
    assert trace.clean_event is False


_RULE_HALVES = st.one_of(
    st.sampled_from([math.log(1 / 0.9) / 2.0, math.log(2.0) / 2.0, math.log(1e15) / 2.0]),
    st.floats(-math.log1p(-(2.0**-53)) / 2.0, 372.5),
)


# Two all-0.0 runs against a tight reference whose float recurrence rounds
# the mean below k * m / p: with no rounding margin the window would end one
# pull late. The second has a Rule()-sized half, about ln(2000**3) / 2.
@example(k=78, extra=72, m=0.9979622154389926, half=222.91440679651834, reference_kind="tight",
         below=0.0, clean=False, toward=0.0, rewards="zeros", seed=0)
@example(k=1030, extra=35, m=0.9875017723523862, half=11.40937944476882, reference_kind="tight",
         below=0.0, clean=False, toward=0.0, rewards="zeros", seed=0)
@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3000),
    extra=st.integers(1, 3000),
    m=st.floats(0.0, 1.0),
    half=_RULE_HALVES,
    reference_kind=st.sampled_from(["-inf", "below", "tight"]),
    below=st.floats(0.0, 2.0),
    clean=st.booleans(),
    toward=st.floats(-1.0, 1.0),
    rewards=st.sampled_from(["zeros", "ones", "random", "burst"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_check_fires_inside_a_check_window(
    k, extra, m, half, reference_kind, below, clean, toward, rewards, seed
):
    # After a checked pull k that fired nothing, replay the loop's own float
    # recurrence up to the next checked pull: neither the clean check nor the
    # rule-out may fire before it, whatever rewards in [0, 1] arrive. The
    # "tight" reference is met with equality, at the window's cap, by the
    # exact mean of an all-0.0 run.
    k, budget = float(k), float(k + extra)
    rad = math.sqrt(half / k)
    if reference_kind == "-inf":
        reference = -math.inf
    elif reference_kind == "below":
        reference = m + rad - below
    else:
        p = budget - 1.0
        reference = k * m / p + math.sqrt(half / p)
    mu = min(1.0, max(0.0, m + toward * rad)) if clean else None
    assume(not m + rad < reference)
    assume(mu is None or not abs(m - mu) > rad)
    check = policies._next_check(k, m, rad, reference, half, budget, mu)
    assert k + 1.0 <= check <= budget and check == int(check)

    rng = random.Random(seed)
    fixed = {"zeros": 0.0, "ones": 1.0}.get(rewards)
    start = rng.randrange(int(check - k))
    burst = range(start, start + 1 + rng.randrange(int(check - k))) if rewards == "burst" else ()
    n, mean = k, m
    for i, n1 in enumerate(map(float, range(int(k) + 1, int(check)))):
        reward = fixed if fixed is not None else 1.0 if i in burst else rng.random()
        mean = (mean * n + reward) / n1
        r = math.sqrt(half / n1)
        assert mu is None or not abs(mean - mu) > r, n1
        assert not mean + r < reference, n1
        n = n1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    n=st.integers(1, 2**53 - 1),
    m=_FINITE,
    x=_FINITE,
    log_inv_delta=st.floats(-math.log1p(-(2.0**-53)), 745.0),
    budget=st.integers(2**53, 2**80),
)
def test_float_counts_compute_what_int_counts_do(n, m, x, log_inv_delta, budget):
    # run_episode's segment carries its counts as floats; observe's are ints.
    # Below 2**53 the two give the same bits, and a larger budget equals no
    # reachable count either way.
    assert float(n) == n and int(float(n)) == n
    assert repr(m * n) == repr(m * float(n))
    assert repr(x / n) == repr(x / float(n))
    assert (log_inv_delta / 2.0) / float(n) == log_inv_delta / (2.0 * n)
    assert float(budget) != float(n) and budget != n


@example(t1=2**53 - 2, dt=1, n=1, mean=0.0)
@example(t1=2**44 - 1, dt=1, n=3, mean=0.25)
@example(t1=1, dt=0, n=1, mean=1.0)
@given(
    t1=st.integers(1, 2**53 - 1),
    dt=st.one_of(st.integers(0, 64), st.integers(0, 2**53)),
    n=st.integers(1, 2**53 - 1),
    mean=st.floats(0.0, 1.0),
)
def test_ucb1_scan_test_implies_observes(t1, dt, n, mean):
    # Ucb1Policy.scan tests every pull of a stretch with c0 = 2.0 * log(t1),
    # taken at the stretch's first pull, and a float count; observe tests
    # pull t >= t1 with 2.0 * log(t) and an int count. The cheap index is
    # never above observe's, so any bound the cheap test clears, observe's
    # test clears too, down to the tightest one.
    t = min(t1 + dt, 2**53 - 1)
    cheap = mean + math.sqrt(2.0 * math.log(t1) / float(n))
    exact = mean + math.sqrt(2.0 * math.log(t) / n)
    assert exact >= cheap
    bound = math.nextafter(cheap, -math.inf)
    assert cheap > bound and exact > bound


# Means 0.9, 0.72, 0.3, 0.2, 0.1 (best arm moved for the point masses): the
# top two separate in round 3, three of five arms fall in round 2 so the
# adaptive step differs from halving, and a doubling run at T = 20000
# crosses four levels and ends mid-scan.
_ORACLE_INSTANCES = {
    "bernoulli": BanditInstance(tuple(bernoulli(p) for p in (0.9, 0.72, 0.3, 0.2, 0.1))),
    "beta": BanditInstance(
        tuple(beta_arm(a, b) for a, b in ((9.0, 1.0), (18.0, 7.0), (3.0, 7.0), (2.0, 8.0), (1.0, 9.0)))
    ),
    "point": BanditInstance(tuple(point_mass(p) for p in (0.72, 0.9, 0.3, 0.2, 0.1))),
}


@pytest.mark.parametrize("kind", sorted(_ORACLE_INSTANCES))
@pytest.mark.parametrize(
    "cfg",
    [
        PolicyConfig("constspace", GEOMETRIC),
        PolicyConfig("constspace", polylog(0.5)),
        PolicyConfig("constspace", ADAPTIVE_RATIO),
        PolicyConfig("doubling", GEOMETRIC),
        PolicyConfig("ucb1"),
    ],
    ids=lambda cfg: cfg.name if cfg.name == "ucb1" else f"{cfg.name}-{cfg.schedule.label()}",
)
def test_run_episode_matches_step_driven_oracle(kind, cfg):
    inst = _ORACLE_INSTANCES[kind]
    for seed in (0, 1):
        assert_matches_step_driven(cfg, inst, 20000, seed)


# sha256 of the episode outputs below, recorded on the engine that carried
# its counts as ints. Any engine must reproduce them bit for bit: a changed
# pull count, round record, flag, commitment or regret checkpoint changes
# the digest, and so does a count that turns into a float (5.0 for 5).
_GOLDEN_DIGEST = "4d4ee98a5e416a52d00b985727094a8f8801ea4b0f1b3071c799351e74678cf0"
_GOLDEN_CONFIGS = (
    PolicyConfig("constspace", GEOMETRIC),
    PolicyConfig("constspace", polylog(0.5)),
    PolicyConfig("constspace", ADAPTIVE_RATIO),
    PolicyConfig("constspace", GEOMETRIC, Rule(0.5)),
    PolicyConfig("doubling", GEOMETRIC),
    PolicyConfig("ucb1"),
)


def test_run_episode_outputs_match_golden_digest():
    values = []
    for kind, cfg, horizon, seed in product(sorted(_ORACLE_INSTANCES), _GOLDEN_CONFIGS, (997, 20000), (0, 1)):
        trace = run_episode(cfg, _ORACLE_INSTANCES[kind], horizon, seed)
        rounds = None if trace.round_log is None else [astuple(rec) for rec in trace.round_log]
        values.append([
            kind, cfg.label(), horizon, seed, trace.pull_counts, rounds, trace.clean_event,
            trace.frozen, trace.committed_arm, trace.trajectory, trace.level_log,
        ])
    encoded = json.dumps(values, separators=(",", ":")).encode()
    assert hashlib.sha256(encoded).hexdigest() == _GOLDEN_DIGEST


# Means on a coarse ladder give gaps wide enough to commit within a few
# thousand pulls; any float in [0, 1] gives near-ties.
_RANDOM_MEANS = st.one_of(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]), st.floats(0.0, 1.0))
_RANDOM_ARMS = st.one_of(
    st.builds(bernoulli, _RANDOM_MEANS),
    st.builds(beta_arm, st.sampled_from([0.5, 1.0, 2.0, 9.0]), st.floats(0.3, 10.0)),
    st.builds(point_mass, _RANDOM_MEANS),
)
_RANDOM_CONFIGS = st.one_of(
    # a loose fixed delta shrinks budgets and makes unclean episodes common
    st.builds(
        PolicyConfig,
        st.just("constspace"),
        st.sampled_from([GEOMETRIC, polylog(0.5), polylog(0.25), ADAPTIVE_RATIO]),
        st.sampled_from([Rule(), Rule(0.05), Rule(0.5), Rule(0.9)]),
    ),
    st.builds(
        PolicyConfig, st.just("doubling"), st.sampled_from([GEOMETRIC, polylog(0.5), ADAPTIVE_RATIO])
    ),
    st.just(PolicyConfig("ucb1")),
)
# Random horizons end mid-arm, mid-round or mid-way through a UCB1 run of
# pulls of one arm; the listed ones end on a doubling level boundary (10,
# 110, 10110) or one pull either side of it.
_RANDOM_HORIZONS = st.one_of(
    st.integers(1, 6000), st.sampled_from([9, 10, 11, 109, 110, 111, 10109, 10110, 10111])
)


@settings(max_examples=100, deadline=None)
@given(
    arms=st.lists(_RANDOM_ARMS, min_size=2, max_size=6),
    cfg=_RANDOM_CONFIGS,
    horizon=_RANDOM_HORIZONS,
    seed=st.integers(0, 2**16),
)
def test_run_episode_matches_oracle_on_random_episodes(arms, cfg, horizon, seed):
    assert_matches_step_driven(cfg, BanditInstance(tuple(arms)), horizon, seed)


# custom(0.9, 0.6) commits in level 2, so at T = 10110 the bulk exploitation
# itself ends the level.
_BOUNDARY_INSTANCES = {**_ORACLE_INSTANCES, "two_arm": make_custom([0.9, 0.6])}


@pytest.mark.parametrize("horizon", [10, 110, 10110])
@pytest.mark.parametrize("kind", sorted(_BOUNDARY_INSTANCES))
def test_doubling_on_level_boundary_matches_oracle(kind, horizon):
    # The episode ends exactly as a level does: the wrapper has already
    # started the next level, which is logged with zero steps and whose
    # fresh inner policy is the one reported (not committed).
    inst = _BOUNDARY_INSTANCES[kind]
    trace = assert_matches_step_driven(PolicyConfig("doubling"), inst, horizon, 0)
    assert trace.level_log[-1][2] == 0 and trace.frozen


# Both beta instances commit in level 2 at seed 0; the second has its best arm
# at index 1. From T = 10111 level 3 draws again from the arm whose level-2
# exploitation was skipped; at T = 20000 it closes rounds whose means read
# those draws, so a stream left in the wrong place changes the records.
_EARLY_COMMIT_INSTANCES = {
    "beta_91_19": BanditInstance((beta_arm(9.0, 1.0), beta_arm(1.0, 9.0))),
    "beta_19_91_55": BanditInstance(
        (beta_arm(1.0, 9.0), beta_arm(9.0, 1.0), beta_arm(5.0, 5.0))
    ),
}


@pytest.mark.parametrize("horizon", [10110, 10111, 20000])
@pytest.mark.parametrize("kind", sorted(_EARLY_COMMIT_INSTANCES))
def test_doubling_commit_before_last_level_matches_oracle(kind, horizon):
    trace = assert_matches_step_driven(
        PolicyConfig("doubling"), _EARLY_COMMIT_INSTANCES[kind], horizon, 0
    )
    commits = [rec.level for rec in trace.round_log if rec.event == "committed"]
    assert 2 in commits and len(trace.level_log) > 3


@pytest.mark.parametrize("horizon", [10110, 10111, 20000])
@pytest.mark.parametrize("kind", sorted(_EARLY_COMMIT_INSTANCES))
def test_committed_level_leaves_stream_at_pull_count(monkeypatch, kind, horizon):
    # Each arm's stream must end where one draw per pull would leave it:
    # drawn plus skipped rewards equal the arm's pulls. The trace alone
    # cannot show this at T = 10110 and 10111, where no later level reads
    # the skipped arm's stream far enough to change a record.
    inst = _EARLY_COMMIT_INSTANCES[kind]
    moved = [0] * inst.n_arms
    real_draw, real_skip = RewardStream.draw, RewardStream.skip

    def counting_draw(self, arm):
        moved[arm] += 1
        return real_draw(self, arm)

    def counting_skip(self, arm, n):
        moved[arm] += n
        real_skip(self, arm, n)

    monkeypatch.setattr(RewardStream, "draw", counting_draw)
    monkeypatch.setattr(RewardStream, "skip", counting_skip)
    trace = run_episode(PolicyConfig("doubling"), inst, horizon, 0)
    assert any(rec.event == "committed" for rec in trace.round_log)
    for arm, spec in enumerate(inst.arms):
        if spec.kind != "point":
            assert moved[arm] == trace.pull_counts[arm], arm


def test_doubling_committed_levels_exploit_in_bulk(monkeypatch):
    inst = make_custom([0.9, 0.6])
    cfg = PolicyConfig("doubling")
    draws = []
    real_draw = RewardStream.draw

    def counting_draw(self, arm):
        draws.append(arm)
        return real_draw(self, arm)

    monkeypatch.setattr(RewardStream, "draw", counting_draw)
    trace = run_episode(cfg, inst, 20000, 0)
    # Levels 0 and 1 run out mid-scan. Level 2 commits after 2214 of its
    # 10^4 pulls and level 3 after 4424 of its 9890, so the 7786 and 5466
    # pulls after those commits are skipped, not drawn.
    assert len(draws) == 10 + 100 + 2214 + 4424 == 6748
    assert [rec.level for rec in trace.round_log if rec.event == "committed"] == [2, 3]
    assert trace.level_log == [(0, 10, 10), (1, 100, 100), (2, 10**4, 10**4), (3, 10**8, 9890)]
    assert_matches_step_driven(cfg, inst, 20000, 0)


@pytest.mark.parametrize("name", ["constspace", "doubling", "ucb1"])
def test_episode_selects_once_per_arm_scan(monkeypatch, name):
    # The step-driven path selected and observed once per pull. The episode
    # loop draws every stepped pull but selects once per arm scan, so at most
    # once per transition report plus once per level (for the scan the level
    # ends in). A round-based scan hands observe only the pull that ends an
    # arm or a round; UCB1's hands it the pulls its cheap test cannot apply.
    calls = {"select": 0, "observe": 0, "transitions": 0, "draws": 0, "skipped": 0}
    policy_class = Ucb1Policy if name == "ucb1" else ConstSpacePolicy
    real_select, real_observe = policy_class.select_arm, policy_class.observe
    real_draw, real_skip = RewardStream.draw, RewardStream.skip

    def counting_select(self):
        calls["select"] += 1
        return real_select(self)

    def counting_observe(self, reward):
        report = real_observe(self, reward)
        calls["observe"] += 1
        calls["transitions"] += report is not CONTINUE
        return report

    def counting_draw(self, arm):
        calls["draws"] += 1
        return real_draw(self, arm)

    def counting_skip(self, arm, n):
        calls["skipped"] += n
        real_skip(self, arm, n)

    monkeypatch.setattr(policy_class, "select_arm", counting_select)
    monkeypatch.setattr(policy_class, "observe", counting_observe)
    monkeypatch.setattr(RewardStream, "draw", counting_draw)
    monkeypatch.setattr(RewardStream, "skip", counting_skip)
    trace = run_episode(PolicyConfig(name), make_linear_gaps(4), 10**4, 0)
    levels = len(trace.level_log) if trace.level_log else 1
    assert calls["draws"] + calls["skipped"] == trace.steps and calls["draws"] > 1000
    if name == "ucb1":
        assert calls["draws"] == trace.steps and calls["observe"] < calls["draws"] / 4
        assert calls["observe"] >= calls["transitions"] >= 4
    else:
        assert calls["observe"] == calls["transitions"] >= 4
    assert 0 < calls["select"] <= calls["transitions"] + levels


@pytest.mark.parametrize("base", [ConstSpacePolicy, Ucb1Policy])
@pytest.mark.parametrize("bad", [-1, 4])  # the instance has K = 4 arms
def test_episode_rejects_an_arm_outside_the_instance(monkeypatch, base, bad):
    # A policy that selects arm -1 or K must stop the episode with an
    # IndexError before its scan runs: no draw is made, and no pull is served,
    # so none can be booked in the tallies, the round tallies or the regret
    # checkpoints, which are settled only from what a scan serves.
    inst = make_linear_gaps(4)
    scans, draws = [], []

    class Faulty(base):
        def select_arm(self):
            return bad

        def scan(self, *args):
            scans.append(args)
            return super().scan(*args)

    def counting_draw(self, arm):
        draws.append(arm)
        raise AssertionError("drew a reward for a bad arm")

    monkeypatch.setattr(policies, base.__name__, Faulty)  # the class make_policy builds
    monkeypatch.setattr(RewardStream, "draw", counting_draw)
    cfg = PolicyConfig("ucb1" if base is Ucb1Policy else "constspace")
    with pytest.raises(IndexError, match=rf"policy selected arm {bad}, not one of 0\.\.3"):
        run_episode(cfg, inst, 100, 0)
    assert scans == [] and draws == []


def test_pseudo_regret_arithmetic():
    inst = make_custom([0.9, 0.5])
    trace = run_episode(PolicyConfig("constspace"), inst, 15, 0)
    trace.pull_counts = [10, 5]
    assert pseudo_regret(trace, inst) == pytest.approx(2.0)
    trace.pull_counts = [15, 0]
    assert pseudo_regret(trace, inst) == 0.0
    with pytest.raises(ValueError):
        pseudo_regret(trace, make_custom([0.9, 0.5, 0.1]))


def test_trajectory_checkpoints():
    inst = make_custom([0.9, 0.6])
    trace = run_episode(PolicyConfig("constspace"), inst, 5000, 3)
    ticks = [t for t, _ in trace.trajectory]
    assert ticks == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 5000]
    values = [v for _, v in trace.trajectory]
    assert values == sorted(values)  # regret trajectory is non-decreasing
    assert values[-1] == pseudo_regret(trace, inst)


@pytest.mark.parametrize("policy", ["constspace", "doubling", "ucb1"])
def test_last_checkpoint_is_the_pseudo_regret(policy):
    # a per-pull float sum ended at 50.99999999999987 for constspace here,
    # where the tallies give 51.00000000000001
    inst = make_custom([0.9, 0.6])
    trace = run_episode(PolicyConfig(policy), inst, 1000, 0)
    assert trace.trajectory[-1] == (1000, pseudo_regret(trace, inst))


def test_episode_determinism():
    inst = make_custom([0.9, 0.7, 0.4])
    cfg = PolicyConfig("constspace")
    a = run_episode(cfg, inst, 4000, 5)
    b = run_episode(cfg, inst, 4000, 5)
    assert a == b


def test_lemma_checks_pass_on_point_mass():
    inst = make_custom([0.9, 0.45], kind="point")
    cfg = PolicyConfig("constspace")
    trace = run_episode(cfg, inst, 10**4, 0)
    report = check_lemma_assertions(trace, inst, cfg)
    assert report.clean_event and report.all_pass and not report.failures


def test_lemma_checks_require_round_log():
    inst = make_custom([0.9, 0.45])
    ucb_trace = run_episode(PolicyConfig("ucb1"), inst, 500, 0)
    with pytest.raises(ValueError):
        check_lemma_assertions(ucb_trace, inst, PolicyConfig("ucb1"))


def test_lemma_checks_reject_degenerate_instance():
    inst = make_custom([0.5, 0.5])
    cfg = PolicyConfig("constspace")
    trace = run_episode(cfg, inst, 500, 0)
    with pytest.raises(ValueError):
        check_lemma_assertions(trace, inst, cfg)


def _synthetic_trace(round_log, clean=True):
    return EpisodeTrace(
        steps=1000,
        pull_counts=[500, 500],
        round_log=round_log,
        action_log=None,
        trajectory=None,
        clean_event=clean,
        r_max_observed=len(round_log),
        committed_arm=0,
        separated=True,
        frozen=False,
        level_log=None,
        policy_words=20,
    )


def test_lemma_checks_flag_injected_violation():
    inst = make_custom([0.9, 0.4])
    cfg = PolicyConfig("constspace")
    # arm 1 has gap 0.5 > g_prev 0.25; its pull cap is 2 ln(1e9)/(0.25)^2 + 1 = 664
    bad = RoundRecord(
        r=2, level=0, g=0.125, g_prev=0.25, budget=2653, delta=1e-9,
        pulls=(2653, 900), best=0, mean_best=0.9, second=1, mean_second=0.4,
        event="round_done", separated=False,
    )
    report = check_lemma_assertions(_synthetic_trace([bad]), inst, cfg)
    failed = {c.name for c in report.failures}
    assert "per_arm_pull_cap" in failed
    assert any("round 2" in c.detail for c in report.failures)


def test_lemma_checks_vacuous_without_clean_event():
    inst = make_custom([0.9, 0.4])
    cfg = PolicyConfig("constspace")
    bad = RoundRecord(
        r=1, level=0, g=0.5, g_prev=0.5, budget=166, delta=1e-9,
        pulls=(100, 166), best=0, mean_best=0.2, second=1, mean_second=0.1,
        event="round_done", separated=False,
    )
    report = check_lemma_assertions(_synthetic_trace([bad], clean=False), inst, cfg)
    assert report == LemmaReport(False, ())  # the conditional checks are vacuous
    assert report.all_pass and not report.failures


def test_doubling_episode_levels():
    inst = make_custom([0.9, 0.6])
    trace = run_episode(PolicyConfig("doubling"), inst, 10**4, 0)
    assert trace.level_log == [(0, 10, 10), (1, 100, 100), (2, 10**4, 9890)]
    assert trace.steps == 10**4 == sum(trace.pull_counts)
    assert trace.round_log[-1].level == 2


def test_run_suite_shapes_and_determinism():
    inst = make_custom([0.9, 0.6])
    cfgs = [PolicyConfig("constspace"), PolicyConfig("ucb1")]
    reports = run_suite(cfgs, [inst], [800], 3, base_seed=5)
    assert len(reports) == 2
    first = reports[0]
    assert first.seeds == [5, 6, 7] and len(first.regrets) == 3
    assert first.mean_regret == pytest.approx(sum(first.regrets) / 3)
    assert first.error is None
    again = run_suite(cfgs, [inst], [800], 3, base_seed=5, jobs=4)
    assert repr(reports) == repr(again)  # the ucb1 cell's NaN rates never compare equal
    with pytest.raises(ValueError):
        run_suite([], [inst], [800], 3)


def test_ucb1_cell_reports_no_round_statistics():
    inst = make_custom([0.9, 0.6])
    ucb1, const = run_suite([PolicyConfig("ucb1"), PolicyConfig("constspace")], [inst], [500], 2)
    assert ucb1.error is None and ucb1.mean_regret > 0.0
    assert math.isnan(ucb1.r_max_mean)
    assert math.isnan(ucb1.clean_event_rate)
    assert math.isnan(ucb1.best_commit_rate)
    assert math.isnan(ucb1.bound_value)
    # a round-based cell still reports its rates
    assert const.clean_event_rate == 1.0 and not math.isnan(const.r_max_mean)
    assert 0.0 <= const.best_commit_rate <= 1.0


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps in process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs,cores,expected", [(64, 2, [2]), (64, 100, [3]), (2, 100, [2]), (64, 1, [])]
)
def test_run_suite_clamps_pool_size(monkeypatch, jobs, cores, expected):
    assert _pool_sizes(monkeypatch, jobs, cores, set(range(cores))) == expected


@pytest.mark.parametrize(
    "cpu_count,affinity,expected",
    [(2, {1}, []), (4, {0, 2}, [2]), (2, None, [2]), (1, None, [])],
    ids=["one-cpu-of-two", "two-cpus-of-four", "no-affinity-two", "no-affinity-one"],
)
def test_run_suite_counts_the_cpus_it_may_run_on(monkeypatch, cpu_count, affinity, expected):
    # the affinity set bounds the pool where the platform has one; os.cpu_count where not
    assert _pool_sizes(monkeypatch, 2, cpu_count, affinity) == expected


def _pool_sizes(monkeypatch, jobs, cpu_count, affinity):
    """Pool sizes ``run_suite`` asks for over three cells on a host with
    ``cpu_count`` CPUs and the given affinity set (None: no affinity call);
    [] means the cells ran in process."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    inst = make_custom([0.9, 0.6])
    cfgs = [PolicyConfig("constspace"), PolicyConfig("doubling"), PolicyConfig("ucb1")]
    reports = run_suite(cfgs, [inst], [50], 1, base_seed=0, jobs=jobs)
    assert [r.error for r in reports] == [None, None, None]
    return _SerialPool.sizes


def test_run_suite_records_cell_failure():
    inst = make_custom([0.5, 0.5])  # degenerate: regret bound is NaN, run still works
    reports = run_suite([PolicyConfig("constspace")], [inst], [200], 2)
    assert reports[0].error is None
    assert math.isnan(reports[0].bound_value)


def test_memory_audit_rows(monkeypatch):
    cfgs = [
        PolicyConfig("constspace"),
        PolicyConfig("doubling"),
        PolicyConfig("ucb1"),
    ]
    made = []

    def keep_policy(*args):  # the audited policies, for their final state
        made.append(make_policy(*args))
        return made[-1]

    monkeypatch.setattr(simulator, "make_policy", keep_policy)
    rows = memory_audit(cfgs, [2, 10, 100])
    # 64 pulls cross the doubling wrapper from level 0 (T_0 = 10) into level 1.
    wrappers = [p for p in made if isinstance(p, DoublingPolicy)]
    assert len(wrappers) == 3 and simulator.AUDIT_STEPS == 64
    for wrapper in wrappers:
        assert (wrapper.level, wrapper.level_horizon, wrapper.inner.t) == (1, 100, 54)
        assert wrapper.t_total == simulator.AUDIT_STEPS
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row.policy, []).append(row)
    const_words = {(r.words_at_reset, r.words_peak) for r in by_policy["constspace"]}
    assert const_words == {(20, 20)}  # peak equals reset: no transient allocation
    assert {(r.words_at_reset, r.words_peak) for r in by_policy["doubling"]} == {(23, 23)}
    ucb = sorted(by_policy["ucb1"], key=lambda r: r.n_arms)
    words = [r.words_at_reset for r in ucb]
    slopes = [
        (words[i + 1] - words[i]) / (ucb[i + 1].n_arms - ucb[i].n_arms)
        for i in range(len(ucb) - 1)
    ]
    assert all(s == 2.0 for s in slopes)
    with pytest.raises(ValueError):
        memory_audit(cfgs, [])
