"""Workload inputs: what each benchmark workload runs, built from its seed.

The set-up probe imports this module in a fresh interpreter and times
``import constbandit`` plus ``build``, so it imports nothing but the package.

Workloads (cells taken from the ``competitive_ratio`` and ``lemma_suite``
presets, which are too slow to run whole 22 times per check):

scan_linear16
    ``constbandit run`` with four round-based policies on linear(K=16) at
    T=1e5, ``--jobs min(2, nproc)``, CSV and JSON written. Nearly every pull
    goes through ``RewardStream.draw``, the constant-space policy step and the
    harness loop; polylog freezes mid-scan on every seed and geometric on
    about half. The only workload that uses the ``run_suite`` process pool,
    trajectories and CSV/JSON emission. Should move with a block-scan
    episode engine.
ucb1_linear16
    ``run_suite`` with UCB1 on linear(K=16) at T=1e5, in process. The
    per-step cost is the numpy index in ``Ucb1Policy``; the constant-space
    engine does not run, so a block-scan engine should leave it unchanged.
    Should move with a faster UCB1 kernel.
verify_commit4
    ``run_episode`` with round logs, then ``check_lemma_assertions`` and
    ``pseudo_regret``, for constspace on custom(0.9,0.8,0.5,0.3) at T=1e5
    (the acceptance 3/4 cell). Episodes commit after about four rounds and
    44k explore pulls, then take the bulk ``advance_exploitation`` path, so a
    faster explore engine saves only that share of the steps here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from constbandit import cli, envs, policies

SCAN_POLICIES = (
    "constspace-geometric",
    "constspace-polylog(0.5)",
    "constspace-adaptive",
    "doubling",
)
COMMIT4_MEANS = (0.9, 0.8, 0.5, 0.3)

# Full-size parameters: horizon and episodes per cell. One repetition takes
# about a second on a 2-core host, so a run's median spans many of them.
SIZES = {
    "scan_linear16": (10**5, 4),
    "ucb1_linear16": (10**5, 1),
    "verify_commit4": (10**5, 16),
}
WORKLOADS = tuple(SIZES)


def nproc() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Plan:
    """Everything a workload needs, derived from its name and seed alone."""

    workload: str
    seed: int
    horizon: int
    episodes_per_cell: int
    base_seed: int
    jobs: int
    configs: tuple[policies.PolicyConfig, ...]
    instance: envs.BanditInstance
    argv: tuple[str, ...] = ()

    @property
    def cells(self) -> int:
        return len(self.configs)

    @property
    def episodes(self) -> int:
        return self.cells * self.episodes_per_cell

    @property
    def pulls(self) -> int:
        return self.episodes * self.horizon

    @property
    def episode_seeds(self) -> list[int]:
        return [self.base_seed + k for k in range(self.episodes_per_cell)]


def build(workload: str, seed: int, horizon: int | None = None, episodes: int | None = None) -> Plan:
    """Configs and instance for ``workload``; ``horizon``/``episodes`` shrink it for tests."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    full_horizon, full_episodes = SIZES[workload]
    horizon = full_horizon if horizon is None else horizon
    per_cell = full_episodes if episodes is None else episodes
    if workload == "scan_linear16":
        jobs = min(2, nproc())
        base_seed = seed * len(SCAN_POLICIES) * per_cell
        argv = (
            "run",
            "--policy", ",".join(SCAN_POLICIES),
            "--instance", "linear(K=16)",
            "--T", str(horizon),
            "--seeds", str(per_cell),
            "--base-seed", str(base_seed),
            "--jobs", str(jobs),
            "--format", "both",
        )
        cfg = cli.resolve_config(cli.build_parser().parse_args([*argv, "--out", "unused"]))
        return Plan(workload, seed, horizon, per_cell, base_seed, jobs,
                    tuple(cfg.policies), cli.build_instance(cfg), argv)
    if workload == "ucb1_linear16":
        configs = (policies.PolicyConfig("ucb1"),)
        instance = envs.make_linear_gaps(16)
    else:
        configs = (policies.PolicyConfig("constspace"),)
        instance = envs.make_custom(COMMIT4_MEANS)
    return Plan(workload, seed, horizon, per_cell, seed * per_cell, 1, configs, instance)
