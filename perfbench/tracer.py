"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the public entry points of ``envs``,
``policies``, ``simulator`` and ``cli`` with timing wrappers and
``Tracer.remove`` puts the originals back, so an untraced run executes the
package's own code objects. ``schedules``, ``confidence`` and ``bounds`` run
a few times per round or per cell and are folded into their callers' spans.

A run makes millions of calls, so spans are aggregated per wrapped callable
rather than kept one per call: calls, calls nested inside a span of the same
layer, self time and total time. Self time is a span's duration minus the
durations of the wrapped calls made inside it, so ``Ucb1Policy.observe``
does not count the ``select_arm`` call it makes. Each wrapper's own cost
lands in its caller's self time; ``trace.overhead_ratio`` reports the total.

Process-pool cells: the pool forks its workers after ``install``, so they
inherit the wrappers. The wrapper around ``simulator._run_cell`` takes the
difference of the worker's tracer state over the cell and attaches it to the
returned report; the wrapper around ``run_suite`` merges those differences
back in the parent. Per-layer numbers for ``scan_linear16`` are therefore
the real pool workers' numbers, cell times included.
"""

from __future__ import annotations

import math
import os
import time
from functools import wraps

CHUNK = 256  # RewardStream buffers draws in chunks of this size
_CELL_ATTR = "_perfbench_cell"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # key -> [calls, nested, self_ns, total_ns]
        self.counts: dict[str, float] = {}
        self.episodes: list[tuple[str, int, tuple[int, ...]]] = []  # (policy, seed, pulls)
        self.cells: list[tuple[float, float, int]] = []  # (suite_s, summed cell s, workers)
        self.cell_max_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, child_ns]
        self._bulk: list[tuple[int, int]] = []  # (arm, steps) of the running episode
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self, cb) -> None:
        """Wrap the entry points of the ``constbandit`` package ``cb``."""
        envs, policies, simulator, cli = cb.envs, cb.policies, cb.simulator, cb.cli
        spans = [
            (envs.RewardStream, "draw", "envs.draw", None),
            (policies.ConstSpacePolicy, "select_arm", "policies.constspace.select", None),
            (policies.ConstSpacePolicy, "observe", "policies.constspace.observe", self._after_observe),
            (policies.ConstSpacePolicy, "advance_exploitation", "policies.constspace.advance",
             self._after_advance),
            (policies.DoublingPolicy, "select_arm", "policies.doubling.select", None),
            (policies.DoublingPolicy, "observe", "policies.doubling.observe", None),
            (policies.Ucb1Policy, "select_arm", "policies.ucb1.select", None),
            (policies.Ucb1Policy, "observe", "policies.ucb1.observe", None),
            (simulator, "run_suite", "simulator.run_suite", self._after_suite),
            (simulator, "run_episode", "simulator.run_episode", self._after_episode),
            (simulator, "pseudo_regret", "simulator.pseudo_regret", None),
            (simulator, "check_lemma_assertions", "simulator.check_lemma_assertions", None),
            (cli, "main", "cli.main", None),
            (cli, "write_csv", "cli.write_csv", self._after_write),
            (cli, "write_json", "cli.write_json", self._after_write),
        ]
        for owner, name, key, after in spans:
            original = owner.__dict__.get(name)
            if original is None:
                self.missing.append(key)
                continue
            self._patch(owner, name, self._wrap(key, original, after))
        cell = simulator.__dict__.get("_run_cell")
        if cell is None:
            self.missing.append("simulator.run_cell")
        else:
            self._patch(simulator, "_run_cell", self._wrap_cell(self._wrap("simulator.run_cell", cell)))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- spans ----------------------------------------------------------

    def _wrap(self, key, fn, after=None):
        layer = key.partition(".")[0]
        rec = self.stats.setdefault(key, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += nested
                rec[2] += elapsed - frame[1]
                rec[3] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                # Keep the hook's own time out of every span.
                hook_start = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        return traced

    def _wrap_cell(self, traced_cell):
        @wraps(traced_cell)
        def cell(task):
            stats = {k: list(v) for k, v in self.stats.items()}
            counts = dict(self.counts)
            n_episodes = len(self.episodes)
            start = time.perf_counter()
            index, report = traced_cell(task)
            wall = time.perf_counter() - start
            delta = (
                {k: [a - b for a, b in zip(v, stats.get(k, [0] * 4))] for k, v in self.stats.items()},
                {k: v - counts.get(k, 0) for k, v in self.counts.items()},
                self.episodes[n_episodes:],
            )
            setattr(report, _CELL_ATTR, (os.getpid(), wall, delta))
            return index, report

        return cell

    def _count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- hooks: counts taken where the work happens ---------------------

    def _after_observe(self, args, kwargs, result):
        policy = args[0]
        closed = type(result) is not str  # a round close, not a transition name
        if closed:
            self._count("round_closes")
        if closed or policy.exploring:
            self._count("explore_pulls")

    def _after_advance(self, args, kwargs, result):
        steps = args[1] if len(args) > 1 else kwargs["steps"]
        self._count("bulk_exploit_steps", steps)
        self._bulk.append((args[0].best, steps))

    def _after_episode(self, args, kwargs, trace):
        config, instance = args[0], args[1]
        pulls = list(trace.pull_counts)
        for arm, steps in self._bulk:
            pulls[arm] -= steps
        self._bulk.clear()
        drawn = [n for n, arm in zip(pulls, instance.arms) if arm.kind != "point"]
        self._count("draws_used", sum(drawn))
        self._count("draws_generated", sum(CHUNK * math.ceil(n / CHUNK) for n in drawn))
        self._count("episode_steps", trace.steps)
        if config.name != "ucb1":
            self._count("round_based_pulls", trace.steps)
        for rec in trace.round_log or ():
            self._count("round_records")
            self._count("early_ruleouts", sum(1 for n in rec.pulls if n < rec.budget))
        label = f"{config.name}-{config.schedule_label()}"
        self.episodes.append((label, args[3], tuple(trace.pull_counts)))

    def _after_write(self, args, kwargs, result):
        self._count("bytes_written", os.path.getsize(args[1]))

    def _after_suite(self, args, kwargs, reports):
        jobs = args[5] if len(args) > 5 else kwargs.get("jobs", 1)
        walls = []
        for report in reports:
            cell = report.__dict__.pop(_CELL_ATTR, None)
            if cell is None:  # a worker that did not inherit the wrappers
                self.missing.append("simulator.run_cell in pool workers")
                continue
            pid, wall, (stats, counts, episodes) = cell
            walls.append(wall)
            if pid == os.getpid():
                continue  # ran in this process; already recorded here
            for key, rec in stats.items():
                mine = self.stats.setdefault(key, [0, 0, 0, 0])
                for i, value in enumerate(rec):
                    mine[i] += value
            for name, value in counts.items():
                self._count(name, value)
            self.episodes.extend(episodes)
        workers = min(jobs, len(reports)) if jobs > 1 and len(reports) > 1 else 1
        suite_s = self.stats["simulator.run_suite"][3] / 1e9 - sum(s for s, _, _ in self.cells)
        self.cells.append((suite_s, sum(walls), workers))
        self.cell_max_s = max([self.cell_max_s, *walls])

    # -- per-layer metrics ----------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for one traced repetition of a workload."""

        def rec(key):
            return self.stats.get(key, [0, 0, 0, 0])

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        counts = self.counts.get
        draw = rec("envs.draw")

        def step_ns(policy):
            select, observe = rec(f"policies.{policy}.select"), rec(f"policies.{policy}.observe")
            return per(select[2] + observe[2], observe[0])

        observes = [rec(f"policies.{p}.observe") for p in ("constspace", "doubling", "ucb1")]
        suite_s = sum(s * w for s, _, w in self.cells)
        return {
            "envs.draw_calls": draw[0],
            "envs.draw_ns": per(draw[2], draw[0]),
            "envs.draw_use_ratio": per(counts("draws_used", 0), counts("draws_generated", 0)),
            "policies.constspace.step_ns": step_ns("constspace"),
            "policies.doubling.step_ns": step_ns("doubling"),
            "policies.ucb1.step_ns": step_ns("ucb1"),
            "policies.ucb1.select_per_step": per(
                rec("policies.ucb1.select")[0], rec("policies.ucb1.observe")[0]
            ),
            "policies.step_calls": sum(o[0] - o[1] for o in observes),
            "policies.round_closes": counts("round_closes", 0),
            "policies.early_ruleouts": counts("early_ruleouts", 0),
            "policies.explore_fraction": per(
                counts("explore_pulls", 0), counts("round_based_pulls", 0)
            ),
            "policies.bulk_exploit_steps": counts("bulk_exploit_steps", 0),
            # run_episode's direct children are the draw and policy spans
            "simulator.episode_self_ns_per_step": per(
                rec("simulator.run_episode")[2], counts("episode_steps", 0)
            ),
            "simulator.lemma_check_s": rec("simulator.check_lemma_assertions")[3] / 1e9,
            "simulator.cell_max_s": self.cell_max_s,
            "simulator.fanout_efficiency": per(sum(c for _, c, _ in self.cells), suite_s),
            "simulator.round_records": counts("round_records", 0),
            "cli.emit_s": (rec("cli.write_csv")[3] + rec("cli.write_json")[3]) / 1e9,
            "cli.bytes_written": counts("bytes_written", 0),
        }

