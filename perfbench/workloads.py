"""One repetition of a workload, and the check of its outputs.

``execute`` is the timed part: it calls the package exactly as a user would,
through module attributes, so a traced repetition sees every call. ``check``
runs afterwards, untimed, and turns the outputs into a count of failed units
(cells for ``scan_linear16``, episodes otherwise) plus a digest of the output
values. Digests hash values (numbers, strings, tuples), never class names or
``repr``, so renaming or merging the record classes does not change them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from statistics import fmean

from constbandit import cli, simulator

CSV_HEADER = [
    "policy", "schedule", "instance", "K", "T", "seed_count", "mean_regret",
    "stddev_regret", "bound_value", "state_words", "r_max_mean", "clean_event_rate",
]
ROUND_FIELDS = (
    "r", "level", "g", "g_prev", "budget", "delta", "pulls",
    "best", "mean_best", "second", "mean_second", "event",
)


@dataclass
class Checked:
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(problem)


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def execute(plan, out_dir: str):
    """Run ``plan`` once and return its raw outputs."""
    if plan.workload == "scan_linear16":
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*plan.argv, "--out", out_dir])
    if plan.workload == "ucb1_linear16":
        return simulator.run_suite(
            list(plan.configs), [plan.instance], [plan.horizon],
            plan.episodes_per_cell, plan.base_seed, jobs=plan.jobs,
        )
    config, instance = plan.configs[0], plan.instance
    episodes = []
    for seed in plan.episode_seeds:
        trace = simulator.run_episode(config, instance, plan.horizon, seed, action_log=False)
        lemmas = simulator.check_lemma_assertions(trace, instance, config)
        episodes.append((seed, trace, lemmas, simulator.pseudo_regret(trace, instance)))
    return episodes


def check(plan, raw, out_dir: str) -> Checked:
    if isinstance(raw, Exception):
        units = plan.cells if plan.workload == "scan_linear16" else plan.episodes
        return Checked(units, units, "", [f"raised {type(raw).__name__}: {raw}"])
    if plan.workload == "scan_linear16":
        return _check_scan(plan, raw, out_dir)
    if plan.workload == "ucb1_linear16":
        return _check_ucb1(plan, raw)
    return _check_commit4(plan, raw)


def _check_scan(plan, exit_code, out_dir) -> Checked:
    result = Checked(plan.cells, 0, "")
    try:
        with open(os.path.join(out_dir, "results.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
    except (OSError, ValueError, KeyError) as exc:
        result.fail(plan.cells, f"outputs unreadable: {exc}")
        return result
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    if not rows or rows[0] != CSV_HEADER:
        result.fail(plan.cells, "CSV header differs")
        return result
    rows = rows[1:]
    if len(reports) != plan.cells:
        result.fail(plan.cells, f"{len(reports)} reports for {plan.cells} cells")
        return result
    csv_by_label = {(row[0], row[1]): row for row in rows}
    for index, (config, report) in enumerate(zip(plan.configs, reports)):
        label = (config.name, config.schedule_label())
        seeds = [plan.base_seed + index * plan.episodes_per_cell + k
                 for k in range(plan.episodes_per_cell)]
        row = csv_by_label.get(label)
        problem = None
        if report.get("error") is not None:
            problem = f"cell {label} raised: {report['error']}"
        elif (report["policy"], report["schedule"]) != label or report["seeds"] != seeds:
            problem = f"cell {index} is not {label} on seeds {seeds[0]}.."
        elif row is None:
            problem = f"cell {label} missing from the CSV"
        elif row[3:6] != [str(plan.instance.n_arms), str(plan.horizon), str(len(seeds))]:
            problem = f"cell {label} CSV K/T/seed_count differ"
        elif row[6] != f"{fmean(report['regrets']):.17g}":
            problem = f"cell {label} CSV mean_regret does not match the JSON regrets"
        elif not all(0.0 <= r <= plan.horizon for r in report["regrets"]):
            problem = f"cell {label} regret outside [0, T]"
        if problem:
            result.fail(1, problem)
    if len(rows) != plan.cells:
        result.fail(plan.cells, f"{len(rows)} CSV rows for {plan.cells} cells")
    if exit_code != 0 and not result.failed:
        result.fail(plan.cells, f"cli exit code {exit_code}")
    regrets = [report["regrets"] for report in reports]
    result.digest = digest([csv_bytes.decode(), regrets])
    return result


def _check_ucb1(plan, reports) -> Checked:
    per_cell = plan.episodes_per_cell
    result = Checked(plan.cells * per_cell, 0, "")
    # Every arm is pulled at least once, so regret is at least the gap sum.
    floor = sum(plan.instance.gaps)
    for report in reports:
        if report.error is not None:
            result.fail(per_cell, f"cell raised: {report.error}")
        elif report.seeds != plan.episode_seeds or len(report.regrets) != per_cell:
            result.fail(per_cell, "cell ran other seeds than planned")
        else:
            bad = [r for r in report.regrets if not floor - 1e-9 <= r <= plan.horizon]
            if bad:
                result.fail(len(bad), f"regret outside [{floor}, T]: {bad}")
    if len(reports) != plan.cells:
        result.fail(result.attempted, f"{len(reports)} reports for {plan.cells} cells")
    result.digest = digest([[report.seeds, report.regrets] for report in reports])
    return result


def _check_commit4(plan, episodes) -> Checked:
    result = Checked(len(plan.episode_seeds), 0, "")
    values = []
    for seed, trace, lemmas, regret in episodes:
        if trace.steps != plan.horizon or sum(trace.pull_counts) != plan.horizon:
            result.fail(1, f"seed {seed}: {trace.steps} steps, {sum(trace.pull_counts)} pulls")
        elif trace.clean_event and not lemmas.all_pass:
            names = [check.name for check in lemmas.failures]
            result.fail(1, f"seed {seed}: clean episode fails {names}")
        rounds = [[getattr(rec, name) for name in ROUND_FIELDS] for rec in trace.round_log]
        values.append([seed, trace.pull_counts, rounds, trace.clean_event, regret])
    if len(episodes) != result.attempted:
        result.fail(result.attempted, f"{len(episodes)} episodes for {result.attempted} seeds")
    result.digest = digest(values)
    return result
