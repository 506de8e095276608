import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from constbandit.policies import EXPLOIT, EXPLORE, default_delta
from constbandit.simulator import EpisodeTrace, LemmaReport


def reference_run(means, horizon, schedule=GEOMETRIC):
    """Straight nested-loop rendition of the round-based policy for
    deterministic (point-mass) rewards; control flow independent of the
    package's state machine, used as its oracle."""
    K = len(means)
    delta = default_delta(horizon)
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
    cfg = PolicyConfig("constspace", delta_override=0.4)
    trace = assert_matches_step_driven(cfg, make_custom([0.9, 0.6]), horizon, 0)
    assert trace.round_log[0].budget == 8 and trace.round_log[0].pulls == (8, 8)
    expected = [1, 2, 4, 8, 16] + ([17] if horizon == 17 else [])
    assert [tick for tick, _ in trace.trajectory] == expected
    assert trace.steps == sum(trace.pull_counts) == horizon


def step_driven(cfg, instance, horizon, seed):
    """Oracle for ``run_episode``: select, draw and observe for every one of
    ``horizon`` steps, with no bulk exploitation fast-forward.

    From its own step log it rebuilds what the harness reports. For the
    doubling wrapper: (level, level horizon, steps run) per level, watching
    ``DoublingPolicy.level`` change after each step. Per round record: the
    level it closed in and each arm's pulls in the round. The largest number
    of rounds closed in one level, counted from those records. The clean event:
    on every explore pull, the arm's running mean in the round,
    m_n = (m_{n-1} (n - 1) + reward) / n, stays within sqrt(ln(1/delta) / (2n))
    of its true mean, with the delta of the pull's level. The pseudo-regret
    after each pull, summed pull by pull in step order, and the number of
    pulls stepped before the first exploitation pull (which ``run_episode``
    skips in bulk). Returns the policy too, for its final state."""
    policy = make_policy(cfg, instance.n_arms, horizon)
    doubling = isinstance(policy, DoublingPolicy)
    stream = RewardStream(instance, seed)
    K = instance.n_arms
    actions, records = [], []
    level_log = [] if doubling else None
    level_steps = 0
    clean = True
    pulls, means = [0] * K, [0.0] * K
    regret, regret_sums, stepped = 0.0, [], None
    for step in range(horizon):
        level = policy.level if doubling else 0
        level_horizon = policy.level_horizon if doubling else horizon
        inner = policy.inner if doubling else policy
        phase = getattr(inner, "phase", None)
        exploring = phase == EXPLORE
        if phase == EXPLOIT and stepped is None:
            stepped = step
        arm = policy.select_arm()
        reward = stream.draw(arm)
        report = policy.observe(reward)
        actions.append(arm)
        regret += instance.gaps[arm]
        regret_sums.append(regret)
        if exploring:
            n = pulls[arm] + 1
            pulls[arm] = n
            means[arm] = (means[arm] * (n - 1) + reward) / n
            radius = math.sqrt(inner.log_inv_delta / (2.0 * n))
            if abs(means[arm] - instance.means[arm]) > radius:
                clean = False
        if isinstance(report, RoundRecord):
            records.append(replace(report, level=level, pulls=tuple(pulls)))
            pulls, means = [0] * K, [0.0] * K
        level_steps += 1
        if doubling and policy.level != level:
            level_log.append((level, level_horizon, level_steps))
            level_steps = 0
            pulls, means = [0] * K, [0.0] * K
    if doubling:
        level_log.append((policy.level, policy.level_horizon, level_steps))
    inner = policy.inner if doubling else policy
    committed = inner.best if getattr(inner, "phase", None) == EXPLOIT else None
    stepped = horizon if stepped is None else stepped
    most_rounds = max(Counter(rec.level for rec in records).values(), default=0)
    return actions, committed, records, level_log, clean, regret_sums, stepped, most_rounds, policy


def assert_matches_step_driven(cfg, inst, horizon, seed):
    made = []

    def keep_policy(*args):  # the policy run_episode drives, for its final state
        made.append(make_policy(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "make_policy", keep_policy)
        trace = run_episode(cfg, inst, horizon, seed, action_log=True)
    actions, committed, records, level_log, clean, regret_sums, stepped, most_rounds, oracle = (
        step_driven(cfg, inst, horizon, seed)
    )
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
        assert final == (oracle.level, oracle.level_horizon, oracle.t_total)
        assert policy.t_total == horizon
    for tick, regret in trace.trajectory:
        if tick <= stepped:  # every pull so far was stepped: the same sum, bit for bit
            assert regret == regret_sums[tick - 1], tick
        else:  # a bulk skip adds gap * pulls in one product
            expected = math.fsum(inst.gaps[arm] for arm in actions[:tick])
            assert regret == pytest.approx(expected, abs=1e-9)
    return trace


@pytest.mark.parametrize("last,clean", [(1.0, False), (0.5, True)])
def test_clean_check_covers_the_pull_that_ends_an_arm(monkeypatch, last, clean):
    # Two arms of mean 0.5 with delta 0.5: round 1 gives each arm a budget
    # of 6, and T = 12 ends the episode with that round. Arm 0's running
    # mean is 0.76 after five pulls, inside the radius sqrt(ln 2 / 10) =
    # 0.263. A sixth reward of 1.0 moves it to 0.8, outside sqrt(ln 2 / 12)
    # = 0.240, so the only breach falls on the pull that reports ARM_DONE;
    # a sixth 0.5 gives 0.717 and keeps the episode clean.
    script = (0.76,) * 5 + (last,)

    def scripted_draw(self, arm):
        drawn = vars(self).setdefault("scripted_draws", [0, 0])
        drawn[arm] += 1
        return script[drawn[0] - 1] if arm == 0 else 0.5

    monkeypatch.setattr(RewardStream, "draw", scripted_draw)
    cfg = PolicyConfig("constspace", delta_override=0.5)
    trace = assert_matches_step_driven(cfg, make_custom([0.5, 0.5], kind="point"), 12, 0)
    assert trace.clean_event is clean
    (record,) = trace.round_log
    assert record.budget == 6 and record.pulls == (6, 6)


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


# Means on a coarse ladder give gaps wide enough to commit within a few
# thousand pulls; any float in [0, 1] gives near-ties.
_RANDOM_MEANS = st.one_of(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]), st.floats(0.0, 1.0))
_RANDOM_ARMS = st.one_of(
    st.builds(bernoulli, _RANDOM_MEANS),
    st.builds(beta_arm, st.sampled_from([0.5, 1.0, 2.0, 9.0]), st.floats(0.3, 10.0)),
    st.builds(point_mass, _RANDOM_MEANS),
)
_RANDOM_CONFIGS = st.one_of(
    # a loose delta override shrinks budgets and makes unclean episodes common
    st.builds(
        PolicyConfig,
        st.just("constspace"),
        st.sampled_from([GEOMETRIC, polylog(0.5), polylog(0.25), ADAPTIVE_RATIO]),
        st.sampled_from([None, 0.05, 0.5, 0.9]),
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


@pytest.mark.parametrize("name", ["constspace", "doubling"])
def test_episode_selects_once_per_arm_scan(monkeypatch, name):
    # The step-driven path selected once per pull; the episode loop selects
    # once per arm scan, so at most once per transition report plus once per
    # level (for the scan the level ends in).
    calls = {"select": 0, "observe": 0, "transitions": 0}
    real_select, real_observe = ConstSpacePolicy.select_arm, ConstSpacePolicy.observe

    def counting_select(self):
        calls["select"] += 1
        return real_select(self)

    def counting_observe(self, reward):
        report = real_observe(self, reward)
        calls["observe"] += 1
        calls["transitions"] += report is not CONTINUE
        return report

    monkeypatch.setattr(ConstSpacePolicy, "select_arm", counting_select)
    monkeypatch.setattr(ConstSpacePolicy, "observe", counting_observe)
    trace = run_episode(PolicyConfig(name), make_linear_gaps(4), 10**4, 0)
    levels = len(trace.level_log) if trace.level_log else 1
    assert calls["transitions"] >= 4 and calls["observe"] > 1000
    assert 0 < calls["select"] <= calls["transitions"] + levels


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
    assert values[-1] == pytest.approx(pseudo_regret(trace, inst), rel=1e-9)


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
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cores)
    inst = make_custom([0.9, 0.6])
    cfgs = [PolicyConfig("constspace"), PolicyConfig("doubling"), PolicyConfig("ucb1")]
    reports = run_suite(cfgs, [inst], [50], 1, base_seed=0, jobs=jobs)
    assert _SerialPool.sizes == expected  # [] means the cells ran in process
    assert [r.error for r in reports] == [None, None, None]


def test_run_suite_records_cell_failure():
    inst = make_custom([0.5, 0.5])  # degenerate: regret bound is NaN, run still works
    reports = run_suite([PolicyConfig("constspace")], [inst], [200], 2)
    assert reports[0].error is None
    assert math.isnan(reports[0].bound_value)


def test_memory_audit_rows():
    cfgs = [
        PolicyConfig("constspace"),
        PolicyConfig("doubling"),
        PolicyConfig("ucb1"),
    ]
    rows = memory_audit(cfgs, [2, 10, 100])
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
