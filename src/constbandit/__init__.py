"""Constant-space stochastic bandit policies and a seeded measurement harness."""

import importlib

from .bounds import regret_bound, rmax_bound
from .confidence import Rule, round_budget
from .envs import (
    Arm,
    BanditInstance,
    RewardStream,
    bernoulli,
    beta_arm,
    build_preset,
    make_custom,
    make_linear_gaps,
    make_two_group,
    point_mass,
)
from .policies import (
    ARM_DONE,
    COMMITTED,
    CONTINUE,
    ConstSpacePolicy,
    DoublingPolicy,
    PolicyConfig,
    ROUND_DONE,
    RULED_OUT,
    RoundRecord,
    Ucb1Policy,
    make_policy,
)
from .schedules import (
    ADAPTIVE_RATIO,
    GEOMETRIC,
    Schedule,
    next_precision,
    polylog,
    rounds_to_precision,
)
# The episode engine is imported on first use, so that building inputs and
# ``bounds`` never load it: ``constbandit.run_episode`` and
# ``from constbandit import run_suite`` import ``simulator`` then.
_SIMULATOR_NAMES = frozenset({
    "EpisodeTrace",
    "LemmaReport",
    "MemoryAuditRow",
    "RegretReport",
    "check_lemma_assertions",
    "memory_audit",
    "pseudo_regret",
    "run_episode",
    "run_suite",
})


def __getattr__(name):
    if name == "simulator" or name in _SIMULATOR_NAMES:
        simulator = importlib.import_module(".simulator", __name__)
        return simulator if name == "simulator" else getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ADAPTIVE_RATIO",
    "ARM_DONE",
    "Arm",
    "BanditInstance",
    "COMMITTED",
    "CONTINUE",
    "ConstSpacePolicy",
    "DoublingPolicy",
    "EpisodeTrace",
    "GEOMETRIC",
    "LemmaReport",
    "MemoryAuditRow",
    "PolicyConfig",
    "ROUND_DONE",
    "RULED_OUT",
    "RegretReport",
    "RewardStream",
    "RoundRecord",
    "Rule",
    "Schedule",
    "Ucb1Policy",
    "bernoulli",
    "beta_arm",
    "build_preset",
    "check_lemma_assertions",
    "make_custom",
    "make_linear_gaps",
    "make_policy",
    "make_two_group",
    "memory_audit",
    "next_precision",
    "point_mass",
    "polylog",
    "pseudo_regret",
    "regret_bound",
    "rmax_bound",
    "round_budget",
    "rounds_to_precision",
    "run_episode",
    "run_suite",
]
