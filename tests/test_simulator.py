import math
from dataclasses import replace

import pytest

import constbandit.simulator as simulator
from constbandit import (
    ADAPTIVE_RATIO,
    BanditInstance,
    DoublingPolicy,
    GEOMETRIC,
    PolicyConfig,
    RewardStream,
    RoundRecord,
    beta_arm,
    bernoulli,
    check_lemma_assertions,
    make_custom,
    make_policy,
    memory_audit,
    next_precision,
    point_mass,
    polylog,
    pseudo_regret,
    run_episode,
    run_suite,
)
from constbandit.policies import EXPLOIT, default_delta
from constbandit.simulator import EpisodeTrace


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


def step_driven(cfg, instance, horizon, seed):
    """Oracle for ``run_episode``: select, draw and observe for every one of
    ``horizon`` steps, with no bulk exploitation fast-forward. For the
    doubling wrapper it also logs (level, level horizon, steps run) per level,
    watching ``DoublingPolicy.level`` change after each step, and tags each
    round record with the level it closed in."""
    policy = make_policy(cfg, instance.n_arms, horizon)
    doubling = isinstance(policy, DoublingPolicy)
    stream = RewardStream(instance, seed)
    actions, records = [], []
    level_log = [] if doubling else None
    level_steps = 0
    for _ in range(horizon):
        level = policy.level if doubling else 0
        level_horizon = policy.level_horizon if doubling else horizon
        arm = policy.select_arm()
        report = policy.observe(stream.draw(arm))
        actions.append(arm)
        if isinstance(report, RoundRecord):
            records.append(replace(report, level=level))
        level_steps += 1
        if doubling and policy.level != level:
            level_log.append((level, level_horizon, level_steps))
            level_steps = 0
    if doubling:
        level_log.append((policy.level, policy.level_horizon, level_steps))
    inner = policy.inner if doubling else policy
    committed = inner.best if inner.phase == EXPLOIT else None
    return actions, committed, records, level_log


def assert_matches_step_driven(cfg, inst, horizon, seed):
    trace = run_episode(cfg, inst, horizon, seed, action_log=True)
    actions, committed, records, level_log = step_driven(cfg, inst, horizon, seed)
    assert trace.action_log == actions
    assert trace.pull_counts == [actions.count(arm) for arm in range(inst.n_arms)]
    assert trace.committed_arm == committed
    assert trace.frozen == (committed is None)
    assert [replace(rec, pulls=()) for rec in trace.round_log] == records
    assert trace.level_log == level_log
    for tick, regret in trace.trajectory:
        expected = math.fsum(inst.gaps[arm] for arm in actions[:tick])
        assert regret == pytest.approx(expected, abs=1e-9)
    return trace


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
    ],
    ids=lambda cfg: f"{cfg.name}-{cfg.schedule.label()}",
)
def test_run_episode_matches_step_driven_oracle(kind, cfg):
    inst = _ORACLE_INSTANCES[kind]
    for seed in (0, 1):
        assert_matches_step_driven(cfg, inst, 20000, seed)


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


def test_doubling_last_level_exploits_in_bulk(monkeypatch):
    inst = make_custom([0.9, 0.6])
    cfg = PolicyConfig("doubling")
    draws = []
    real_draw = RewardStream.draw

    def counting_draw(self, arm):
        draws.append(arm)
        return real_draw(self, arm)

    monkeypatch.setattr(RewardStream, "draw", counting_draw)
    trace = run_episode(cfg, inst, 20000, 0)
    assert len(draws) == 14534  # the 5466 pulls after the level-3 commit are not drawn
    assert trace.round_log[-1].event == "committed" and trace.round_log[-1].level == 3
    assert trace.level_log == [(0, 10, 10), (1, 100, 100), (2, 10**4, 10**4), (3, 10**8, 9890)]
    assert_matches_step_driven(cfg, inst, 20000, 0)


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
        n_arms=2,
        horizon=1000,
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
    assert not report.clean_event
    assert all(c.vacuous for c in report.checks)
    assert report.all_pass  # nothing non-vacuous to fail


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
    assert reports == again
    with pytest.raises(ValueError):
        run_suite([], [inst], [800], 3)


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
