"""Episode runner, pseudo-regret ledger, guarantee checks and memory audit.

The harness, unlike the policies it drives, is allowed O(K) memory: it
keeps per-arm pull tallies and the round records. Each policy applies its
own pulls through its ``scan`` kernel; the harness hands a round-based
policy's kernel the arm's true mean, which only the harness knows, and the
kernel flags the clean event (every running mean of a round's scan staying
within its radius of the arm's true mean) with the policy's own running
mean and Hoeffding radius, testing only the pulls on which interval
arithmetic cannot rule a breach out. The conditional guarantees of the
round-based policy are checked only on clean episodes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from itertools import product

from .bounds import regret_bound, rmax_bound
from .envs import BanditInstance, RewardStream, make_linear_gaps
from .policies import (
    COMMITTED,
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
    policy itself, or each level that the doubling wrapper's ``levels()``
    hands out, whose inner policy is stepped directly. A level is
    stepped until it commits, and the rest of it is skipped in bulk:
    exploitation rewards never touch the policy, and ``RewardStream.skip``
    leaves the stream where drawing them would, so the trace is
    step-equivalent.

    A level is stepped in arm segments. Each segment selects an arm once,
    checks that it is one of the instance's arms, and hands it to the
    policy's ``scan(arm, draw, limit, mu)`` kernel with the pulls left
    before the level stops. The kernel draws every pull once, applies the
    CONTINUE pulls under its policy's caller contract and hands the pull
    that ends the arm's scan to ``observe``; it returns the pulls served,
    that report and the clean flag. ``mu`` is the arm's true mean while the
    episode is clean, None after (UCB1's never is).

    The kernels keep no regret state: ``settle`` books each stepped
    segment and each committed skip once, adding its pulls to the tallies
    and the action log and recording each checkpoint (t = 1, 2, 4, ... and
    the horizon) it passes as the pseudo-regret of the tallies at that tick,
    so the last one equals ``pseudo_regret`` exactly. A round record's
    per-arm pulls are the round's own tallies, ``tally[arm] += served`` per
    segment, and ``r_max_observed`` is the largest ``r - 1`` over the
    records. UCB1 has no rounds, so its trace reports the clean event and
    ``r_max_observed`` as None.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_arms = instance.n_arms
    policy = make_policy(policy_config, n_arms, horizon)
    stream = RewardStream(instance, seed)
    draw = stream.draw

    actions: list[int] | None = [] if action_log else None
    doubling = isinstance(policy, DoublingPolicy)
    round_based = doubling or isinstance(policy, ConstSpacePolicy)
    round_records: list[RoundRecord] | None = [] if round_based else None
    level_log: list[tuple[int, int, int]] | None = [] if doubling else None

    pull_counts = [0] * n_arms
    clean = round_based  # UCB1 has no clean event, so it never checks one

    # Regret checkpoints at t = 1, 2, 4, ... and at the horizon, nearest last.
    ticks = [horizon] + [1 << k for k in reversed(range((horizon - 1).bit_length()))]
    trajectory: list[tuple[int, float]] = []

    def settle(arm, start, end):
        """Book pulls ``start + 1 .. end``, all of ``arm``, and the checkpoints among them."""
        if actions is not None:
            actions.extend([arm] * (end - start))
        while ticks and ticks[-1] <= end:
            tick = ticks.pop()
            pull_counts[arm] += tick - start
            start = tick
            trajectory.append((tick, math.fsum(n * g for n, g in zip(pull_counts, instance.gaps))))
        pull_counts[arm] += end - start

    t = 0
    for level, current in enumerate(policy.levels() if doubling else (policy,)):
        if round_based:
            level_end = min(horizon, t + current.horizon - current.t)
            stop = level_end if current.exploring else t
        else:
            stop = level_end = horizon
        tally = [0] * n_arms  # pulls of each arm in the current round

        select_arm, scan = current.select_arm, current.scan
        while t < stop:
            arm, start = select_arm(), t
            if not 0 <= arm < n_arms:
                raise IndexError(f"policy selected arm {arm}, not one of 0..{n_arms - 1}")
            served, report, clean = scan(arm, draw, stop - t, instance.means[arm] if clean else None)
            t += served
            settle(arm, start, t)
            tally[arm] += served
            if type(report) is RoundRecord:
                round_records.append(replace(report, level=level, pulls=tuple(tally)))
                tally = [0] * n_arms
                if report.event == COMMITTED:
                    break

        if t < level_end:  # committed: skip the rest of the level
            stream.skip(current.best, level_end - t)
            current.advance_exploitation(level_end - t)
            settle(current.best, t, level_end)
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
    ``best_commit_rate``) and ``bound_value`` are NaN for UCB1: it has no
    rounds, clean event or commitment, and the bound is the constant-space
    policy's. ``bound_value`` is NaN too where ``regret_bound`` raises. A
    failed cell carries its labels and ``error``; every other field keeps
    its default.
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


def suite_cells(policy_configs, instances, horizons, n_seeds: int, base_seed: int = 0) -> list[tuple]:
    """``(index, policy, instance, horizon, seeds)`` per cell of the grid, in
    order: the seed rule of ``run`` and ``verify``. Episode k of cell i is
    seeded ``base_seed + i * n_seeds + k``, whatever the execution order."""
    return [
        (index, cfg, inst, horizon, [base_seed + index * n_seeds + k for k in range(n_seeds)])
        for index, (cfg, inst, horizon) in enumerate(product(policy_configs, instances, horizons))
    ]


def _run_cell(cell):
    from statistics import fmean, stdev

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
        trajectory_mean = [
            [tick, fmean(tr.trajectory[idx][1] for tr in traces)]
            for idx, (tick, _) in enumerate(traces[0].trajectory)
        ]
        round_stats = {}
        if traces[0].clean_event is not None:  # UCB1 has no rounds, clean event or commitment, nor this bound
            try:
                round_stats["bound_value"] = regret_bound(instance.gaps, horizon, policy_config.schedule)
            except ValueError:
                pass  # the bound is undefined or not a finite float, so it stays NaN
            round_stats.update(
                r_max_mean=fmean(tr.r_max_observed for tr in traces),
                clean_event_rate=fmean(1.0 if tr.clean_event else 0.0 for tr in traces),
                best_commit_rate=fmean(1.0 if tr.committed_arm == instance.best else 0.0 for tr in traces),
            )
        report = RegretReport(
            **label_kwargs,
            regrets=regrets,
            mean_regret=fmean(regrets),
            stddev_regret=stdev(regrets) if len(regrets) > 1 else 0.0,
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

    Episode seeds follow ``suite_cells``, so results are independent of
    ``jobs``. The pool never has more workers than cells or than the cores
    this process may run on.

    The process pool is imported only when one is built. numpy and
    ``numpy.random``, which ``import numpy`` does not load, are imported
    just before, in this process: forked workers inherit them, where each
    would otherwise import them on its first draw. Pool workers load
    ``statistics`` on their first cell. A pool whose worker dies is
    reported as an OSError.
    """
    if not policy_configs or not instances or not horizons:
        raise ValueError("policies, instances and horizons must be non-empty")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    cells = suite_cells(policy_configs, instances, horizons, n_seeds, base_seed)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(cells), cores)
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        import numpy.random  # noqa: F401  (loaded once here, inherited by the workers)

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_cell, cells))
        except BrokenExecutor as exc:
            raise OSError(f"worker pool failed: {exc}") from exc
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
    allocation. Levels are walked as in ``run_episode`` (the doubling
    wrapper's until each has run its horizon, so the audit crosses into
    level 1), each stepped by ``select_arm``/``observe``; the whole
    policy's words are sampled after every pull.
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
            doubling = isinstance(policy, DoublingPolicy)
            left = AUDIT_STEPS
            for current in policy.levels() if doubling else (policy,):
                steps = min(left, current.horizon - current.t) if doubling else left
                for _ in range(steps):
                    current.observe(stream.draw(current.select_arm()))
                    peak = max(peak, policy.state_words())
                left -= steps
            rows.append(MemoryAuditRow(cfg.name, cfg.schedule_label(), K, at_reset, peak))
    return rows
