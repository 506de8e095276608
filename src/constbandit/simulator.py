"""Episode runner, pseudo-regret ledger, guarantee checks and memory audit.

The harness, unlike the policies it drives, is allowed O(K) memory: it
keeps per-arm pull tallies and the round records. It flags the clean event
(every running mean of a round's scan staying within its Hoeffding radius
of the arm's true mean, which the harness knows) by reading the policy's
own running mean and radius after each explore pull. The conditional
guarantees of the round-based policy are checked only on clean episodes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from statistics import fmean, stdev

from .bounds import regret_bound, rmax_bound
from .envs import BanditInstance, RewardStream, make_linear_gaps
from .policies import (
    COMMITTED,
    CONTINUE,
    ConstSpacePolicy,
    DoublingPolicy,
    PolicyConfig,
    RoundRecord,
    make_policy,
)


@dataclass
class EpisodeTrace:
    steps: int
    pull_counts: list[int]
    round_log: list[RoundRecord] | None
    action_log: list[int] | None
    trajectory: list[tuple[int, float]]
    clean_event: bool | None  # None without rounds (UCB1)
    r_max_observed: int | None
    committed_arm: int | None
    separated: bool
    frozen: bool
    level_log: list[tuple[int, int, int]] | None
    policy_words: int


def run_episode(
    policy_config: PolicyConfig,
    instance: BanditInstance,
    horizon: int,
    seed: int,
    *,
    action_log: bool = False,
) -> EpisodeTrace:
    """Drive one policy through ``horizon`` select/sample/observe steps.

    The episode is a loop over levels, each a known-horizon episode: the
    policy itself, or each restart of the doubling wrapper, whose inner
    policy is stepped directly (the wrapper only sequences levels). A level is
    stepped until it commits, and the rest of it is skipped in bulk:
    exploitation rewards never touch the policy or the pseudo-regret, and
    ``RewardStream.skip`` leaves the stream where drawing them would, so the
    trace is step-equivalent.

    A level is stepped in arm segments. Each segment selects an arm once,
    then draws and observes it until ``observe`` reports a transition or
    the level stops; every policy keeps its arm until then (UCB1 reports
    ARM_DONE when its next arm differs). The pseudo-regret advances per
    pull. Each pull tests one ``limit``, the nearer of the next checkpoint
    and the level's stop; the checkpoint and the stop are handled only on
    a pull that reaches the limit or reports a transition. Pull tallies and
    the action log are settled once per segment. A round scans each arm
    once, in index order, so a segment is exactly the arm's pulls in the
    round: its length is the record's per-arm tally, and ``r_max_observed``
    is the largest ``r - 1`` over the records. The clean check compares the
    policy's ``mean_cur`` with its ``radius`` after each explore pull; both
    are the arm's in the round at that pull (see ``ConstSpacePolicy``), so
    the harness computes no radius of its own. An unclean episode checks no
    further pulls. ``action_log`` keeps the arm of every step. UCB1 has no rounds, so its
    trace reports the clean event and ``r_max_observed`` as None.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_arms = instance.n_arms
    policy = make_policy(policy_config, n_arms, horizon)
    stream = RewardStream(instance, seed)
    draw = stream.draw
    true_means = instance.means
    gaps = instance.gaps

    actions: list[int] | None = [] if action_log else None
    doubling = isinstance(policy, DoublingPolicy)
    round_based = doubling or isinstance(policy, ConstSpacePolicy)
    round_records: list[RoundRecord] | None = [] if round_based else None
    level_log: list[tuple[int, int, int]] | None = [] if doubling else None

    pull_counts = [0] * n_arms
    clean = round_based  # UCB1 has no clean event, so it never checks one

    # Regret checkpoints at t = 1, 2, 4, ... and at the horizon.
    trajectory: list[tuple[int, float]] = []
    next_cp = 1
    cum_gap = 0.0

    t = 0
    for level, current in enumerate(policy.levels() if doubling else (policy,)):
        if round_based:
            level_end = min(horizon, t + current.horizon - current.t)
            stop = level_end if current.exploring else t
        else:
            stop = level_end = horizon
        scanned: list[int] = []  # pulls of each arm scanned in the current round

        select_arm, observe = current.select_arm, current.observe
        while t < stop:
            arm = select_arm()
            gap, mu, start = gaps[arm], true_means[arm], t
            limit = min(stop, next_cp)
            while True:
                report = observe(draw(arm))
                t += 1
                cum_gap += gap
                # a stepping round-based level explores, so the radius is this pull's
                if clean and abs(current.mean_cur - mu) > current.radius:
                    clean = False
                if report is not CONTINUE or t == limit:
                    if t == next_cp:
                        trajectory.append((t, cum_gap))
                        next_cp = min(2 * t, horizon)
                    if report is not CONTINUE or t == stop:
                        break
                    limit = min(stop, next_cp)

            pull_counts[arm] += t - start
            if actions is not None:
                actions.extend([arm] * (t - start))
            if round_based:
                scanned.append(t - start)
                if type(report) is RoundRecord:
                    round_records.append(replace(report, level=level, pulls=tuple(scanned)))
                    scanned = []
                    if report.event == COMMITTED:
                        break

        if t < level_end:  # committed: skip the rest of the level
            remaining = level_end - t
            arm = current.best
            stream.skip(arm, remaining)
            current.advance_exploitation(remaining)
            pull_counts[arm] += remaining
            if actions is not None:
                actions.extend([arm] * remaining)
            gap_arm, start = gaps[arm], t
            while t < next_cp <= level_end:
                t = next_cp
                trajectory.append((t, cum_gap + gap_arm * (t - start)))
                next_cp = min(2 * t, horizon)
            cum_gap += gap_arm * remaining
            t = level_end

        if level_log is not None:
            level_log.append((level, current.horizon, current.t))

    if round_based:
        frozen = current.exploring
        committed_arm = None if frozen else current.best
        separated = current.separated
        r_max = max((rec.r - 1 for rec in round_records), default=0)
    else:
        committed_arm, separated, frozen, r_max = None, False, False, None

    return EpisodeTrace(
        steps=t,
        pull_counts=pull_counts,
        round_log=round_records,
        action_log=actions,
        trajectory=trajectory,
        clean_event=clean if round_based else None,
        r_max_observed=r_max,
        committed_arm=committed_arm,
        separated=separated,
        frozen=frozen,
        level_log=level_log,
        policy_words=policy.state_words(),
    )


def pseudo_regret(trace: EpisodeTrace, instance: BanditInstance) -> float:
    """Realized pseudo-regret: sum over arms of pull count times gap."""
    if len(trace.pull_counts) != instance.n_arms:
        raise ValueError("trace and instance arm counts differ")
    return math.fsum(n * g for n, g in zip(trace.pull_counts, instance.gaps))


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class LemmaReport:
    """The checks of one episode; an unclean episode has none."""

    clean_event: bool
    checks: tuple[LemmaCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[LemmaCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


CHECK_NAMES = (
    "best_arm_full_budget",
    "true_best_full_budget",
    "best_mean_accuracy",
    "round_count_cap",
    "per_arm_pull_cap",
)


def check_lemma_assertions(
    trace: EpisodeTrace, instance: BanditInstance, policy_config: PolicyConfig
) -> LemmaReport:
    """Verify the conditional per-round guarantees against a recorded trace.

    All checks are conditional on the clean event, so an unclean episode's
    report has no checks. Checked per completed round: the round's
    reported best arm and the true best arm received their full budget
    (neither was ruled out early); the reported best mean sits within g/2 of
    the true best mean; the number of completed rounds respects the
    schedule's cap; and every arm's pull count respects both the budget and,
    when its gap exceeds the previous half-width, the early-rule-out cap
    2 ln(1/delta) / (gap - g_prev)^2 + 1.
    """
    if trace.round_log is None:
        raise ValueError("trace has no round log; only round-based policies record one")
    delta_min = instance.delta_min
    if delta_min is None:
        raise ValueError("instance has no positive gap; guarantees are undefined")
    if not trace.clean_event:
        return LemmaReport(False, ())

    gaps = instance.gaps
    true_best = instance.best
    mu_star = instance.means[true_best]

    def per_round(name, predicate):
        for rec in trace.round_log:
            ok, detail = predicate(rec)
            if not ok:
                return LemmaCheck(name, False, detail=f"round {rec.r} (level {rec.level}): {detail}")
        return LemmaCheck(name, True)

    def best_full(rec):
        got = rec.pulls[rec.best]
        return got == rec.budget, f"best arm {rec.best} pulled {got} of {rec.budget}"

    def true_best_full(rec):
        got = rec.pulls[true_best]
        return got == rec.budget, f"true best arm {true_best} pulled {got} of {rec.budget}"

    def accuracy(rec):
        err = abs(rec.mean_best - mu_star)
        return err <= rec.g / 2.0, f"|mean_best - mu*| = {err:.6g} > g/2 = {rec.g / 2.0:.6g}"

    def pull_cap(rec):
        log_inv = math.log(1.0 / rec.delta)
        for arm, pulled in enumerate(rec.pulls):
            if pulled > rec.budget:
                return False, f"arm {arm} pulled {pulled} over budget {rec.budget}"
            gap = gaps[arm]
            if gap > rec.g_prev:
                cap = 2.0 * log_inv / (gap - rec.g_prev) ** 2 + 1.0
                if pulled > cap:
                    return False, f"arm {arm} pulled {pulled} over rule-out cap {cap:.3f}"
        return True, ""

    cap = rmax_bound(delta_min, policy_config.schedule)
    round_count = LemmaCheck(
        "round_count_cap",
        trace.r_max_observed <= cap,
        detail="" if trace.r_max_observed <= cap else f"r_max {trace.r_max_observed} > cap {cap}",
    )

    checks = (
        per_round("best_arm_full_budget", best_full),
        per_round("true_best_full_budget", true_best_full),
        per_round("best_mean_accuracy", accuracy),
        round_count,
        per_round("per_arm_pull_cap", pull_cap),
    )
    return LemmaReport(True, checks)


@dataclass
class RegretReport:
    """Aggregated result for one (policy, instance, horizon) cell.

    The round statistics (``r_max_mean``, ``clean_event_rate``,
    ``best_commit_rate``) are NaN for UCB1, which has no rounds, clean
    event or commitment. A failed cell carries its labels and ``error``;
    every other field keeps its default.
    """

    policy: str
    schedule: str
    instance: str
    n_arms: int
    horizon: int
    seeds: list[int]
    regrets: list[float] = field(default_factory=list)
    mean_regret: float = math.nan
    stddev_regret: float = math.nan
    bound_value: float = math.nan
    state_words: int = 0
    r_max_mean: float = math.nan
    clean_event_rate: float = math.nan
    best_commit_rate: float = math.nan
    trajectory_mean: list[list[float]] = field(default_factory=list)
    error: str | None = None


def _cell_seeds(base_seed: int, cell_index: int, n_seeds: int) -> list[int]:
    return [base_seed + cell_index * n_seeds + k for k in range(n_seeds)]


def _run_cell(cell):
    index, policy_config, instance, horizon, seeds = cell
    label_kwargs = dict(
        policy=policy_config.name,
        schedule=policy_config.schedule_label(),
        instance=instance.label,
        n_arms=instance.n_arms,
        horizon=horizon,
        seeds=list(seeds),
    )
    try:
        traces = [run_episode(policy_config, instance, horizon, seed) for seed in seeds]
        regrets = [pseudo_regret(tr, instance) for tr in traces]
        try:
            bound = regret_bound(instance.gap_profile, horizon, policy_config.schedule)
        except ValueError:
            bound = float("nan")
        trajectory_mean = [
            [tick, fmean(tr.trajectory[idx][1] for tr in traces)]
            for idx, (tick, _) in enumerate(traces[0].trajectory)
        ]
        round_stats = {}
        if traces[0].clean_event is not None:  # UCB1 has no rounds, clean event or commitment
            round_stats = dict(
                r_max_mean=fmean(tr.r_max_observed for tr in traces),
                clean_event_rate=fmean(1.0 if tr.clean_event else 0.0 for tr in traces),
                best_commit_rate=fmean(1.0 if tr.committed_arm == instance.best else 0.0 for tr in traces),
            )
        report = RegretReport(
            **label_kwargs,
            regrets=regrets,
            mean_regret=fmean(regrets),
            stddev_regret=stdev(regrets) if len(regrets) > 1 else 0.0,
            bound_value=bound,
            state_words=traces[0].policy_words,
            trajectory_mean=trajectory_mean,
            **round_stats,
        )
    except Exception as exc:  # a failed cell is recorded, not fatal to the suite
        report = RegretReport(**label_kwargs, error=f"{type(exc).__name__}: {exc}")
    return index, report


def run_suite(
    policy_configs,
    instances,
    horizons,
    n_seeds: int,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[RegretReport]:
    """Full cross-product of cells, each aggregated over its own seed block.

    Episode seeds are ``base_seed + cell_index * n_seeds + k`` so results
    are independent of execution order and of ``jobs``. The pool never has
    more workers than cells or cores.
    """
    if not policy_configs or not instances or not horizons:
        raise ValueError("policies, instances and horizons must be non-empty")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    cells = []
    for index, (cfg, inst, horizon) in enumerate(product(policy_configs, instances, horizons)):
        seeds = _cell_seeds(base_seed, index, n_seeds)
        cells.append((index, cfg, inst, horizon, seeds))
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(cell) for cell in cells]
    results.sort(key=lambda pair: pair[0])
    return [report for _, report in results]


@dataclass(frozen=True)
class MemoryAuditRow:
    policy: str
    schedule: str
    n_arms: int
    words_at_reset: int
    words_peak: int


# The audited episode: AUDIT_STEPS pulls of a policy told AUDIT_HORIZON.
AUDIT_STEPS = 64
AUDIT_HORIZON = 100_000
AUDIT_SEED = 0


def memory_audit(policy_configs, K_grid) -> list[MemoryAuditRow]:
    """State words at reset and at peak over a short driven episode, per K.

    The episode is deliberately short; the point is to sample the register
    count while the policy actually runs, catching transient per-arm
    allocation.
    """
    if not K_grid:
        raise ValueError("K grid must be non-empty")
    instances = {K: make_linear_gaps(K) for K in K_grid}  # raises for K < 2
    rows = []
    for cfg in policy_configs:
        for K in K_grid:
            policy = make_policy(cfg, K, AUDIT_HORIZON)
            at_reset = policy.state_words()
            peak = at_reset
            stream = RewardStream(instances[K], AUDIT_SEED)
            for _ in range(AUDIT_STEPS):
                arm = policy.select_arm()
                policy.observe(stream.draw(arm))
                peak = max(peak, policy.state_words())
            rows.append(MemoryAuditRow(cfg.name, cfg.schedule_label(), K, at_reset, peak))
    return rows
