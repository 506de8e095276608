"""Step-driven bandit policies with word-level state accounting.

All policies sit behind one interface: ``select_arm()`` is a pure read
returning the arm to pull next, ``observe(reward)`` consumes the reward of
that arm and returns a transition report, ``state_words()`` counts the
machine-word registers retained between steps.

The round-based constant-space policy scans arms one at a time at a target
half-width ``g``, keeping only the best and second-best round means plus
the rule-out reference the previous round left. Its register count is a
fixed constant regardless of the number of arms, and ``__slots__`` holds it
to that: an attribute outside the declared registers and configuration
cannot be set. ``state_words()`` counts the set slots of the object
itself, and a constant-space register holding a container fails the
count. A finished round is reported as a ``RoundRecord``; the harness adds
the per-arm pull tallies that the policy does not keep. The UCB1 baseline
keeps per-arm tables and exists to exhibit the Theta(K) contrast in the
memory audit; ``observe`` also computes its next arm, so its
``select_arm`` is a read like the others'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log, sqrt

from .confidence import round_budget
from .schedules import GEOMETRIC, Schedule, next_precision

EXPLORE = "explore"
EXPLOIT = "exploit"

CONTINUE = "continue"
RULED_OUT = "ruled_out"
ARM_DONE = "arm_done"
ROUND_DONE = "round_done"
COMMITTED = "committed"


def default_delta(horizon: int) -> float:
    """Per-deviation failure probability 1/T^3, clamped to 1/8 for T < 2.

    The clean event needs every per-pull running mean to stay within
    ``sqrt(ln(1/delta) / 2n)`` of its arm's true mean. By two-sided
    Hoeffding each such check fails with probability at most 2 delta, and
    an episode makes at most T checks, so the clean event fails with
    probability at most 2 T delta. The regret of a failed episode is at
    most T, so E[regret] <= E[regret | clean] + 2 T^2 delta. At 1/T^3 the
    failure term is at most 2/T; 1/T^2 would already keep it at most 2
    while cutting ln(1/delta) from 3 ln T to 2 ln T.
    """
    if horizon < 2:
        return 0.125
    try:
        return 1.0 / float(horizon) ** 3
    except OverflowError:
        raise OverflowError("horizon too large: T^3 overflows a float") from None


@dataclass(frozen=True)
class PolicyConfig:
    """Named policy plus its schedule and optional confidence override."""

    name: str
    schedule: Schedule = GEOMETRIC
    delta_override: float | None = None

    def __post_init__(self):
        if self.name not in ("constspace", "doubling", "ucb1"):
            raise ValueError(f"unknown policy {self.name!r}")

    def schedule_label(self) -> str:
        return "-" if self.name == "ucb1" else self.schedule.label()


@dataclass(frozen=True)
class RoundRecord:
    """One finished scan round, emitted by ``observe``.

    ``event`` is ROUND_DONE when the policy moves on to a finer round and
    COMMITTED when it enters the exploitation phase. Fields carry the
    closing round's values, taken before any reset. ``level`` (the doubling
    level) and ``pulls`` (per-arm pulls in the round) are O(K) or wrapper
    facts the policy does not hold; the harness fills them in.
    """

    event: str
    r: int
    g: float
    g_prev: float
    budget: int
    delta: float
    best: int
    mean_best: float
    second: int | None
    mean_second: float
    separated: bool
    level: int = 0
    pulls: tuple[int, ...] = ()


def _state_words(policy, scalars_only: bool = False) -> int:
    """Words a policy holds between steps, counted from its set slots.

    Configuration slots (``CONFIG``) are inputs and are not counted. A
    scalar (number, string, None) is one word and a list one word per
    entry; ``scalars_only`` rejects lists too, and any other value is
    rejected, so a table cannot hide in a register.
    """
    words = 0
    for name in type(policy).__slots__:
        if name in policy.CONFIG or not hasattr(policy, name):
            continue
        value = getattr(policy, name)
        if value is None or isinstance(value, (int, float, str)):
            words += 1
        elif isinstance(value, list) and not scalars_only:
            words += len(value)
        else:
            raise TypeError(f"{type(policy).__name__}.{name} holds a {type(value).__name__}, not a word")
    return words


class ConstSpacePolicy:
    """Round-based UCB holding a constant number of scalar registers.

    Each round scans every arm in index order, pulling it up to ``budget``
    times; an arm whose upper confidence value drops below the previous
    round's best-arm reference (mean minus half the previous half-width) is
    abandoned early. Round 1 has no previous round, so its reference is
    ``-inf`` and every arm receives its full budget. At the end of a round
    the policy commits if the best and second-best round means are
    separated by more than ``g`` (or the horizon ran out), otherwise it
    shrinks ``g`` per its schedule and rescans.

    With a single arm there is nothing to compare; the policy commits to
    arm 0 at construction.

    While exploring with ``t < horizon``, ``select_arm()`` returns the same
    arm until ``observe`` reports a transition (anything but CONTINUE), so a
    caller may select once per arm scan and feed that arm's rewards until
    the report changes.

    After every explore ``observe``, ``mean_cur`` is the arm's mean over the
    round so far and ``radius`` its Hoeffding radius
    ``sqrt(ln(1/delta) / 2n)``, with ``n`` the arm's pulls in the round,
    also on a pull that ends the arm or round (in round 1 too). Neither
    needs a reset between arms: an arm's first pull computes exactly
    ``reward`` and the radius of one pull. ``reference`` is ``-inf`` in
    round 1, and a round that closes without committing sets it to its
    ``mean_best - g / 2``; an arm is ruled out once
    ``mean_cur + radius < reference``.
    """

    # Mutable scalar registers retained between steps. Configuration
    # (n_arms, schedule) counts as input, not estimator state.
    CONFIG = ("n_arms", "schedule")
    REGISTERS = (
        "phase",
        "r",
        "g",
        "g_prev",
        "budget",
        "scan_arm",
        "n",
        "mean_cur",
        "best",
        "mean_best",
        "second",
        "mean_second",
        "radius",
        "reference",
        "t",
        "horizon",
        "delta",
        "log_inv_delta",
        "survivors",
        "separated",
    )
    __slots__ = REGISTERS + CONFIG

    def __init__(
        self,
        n_arms: int,
        horizon: int,
        schedule: Schedule = GEOMETRIC,
        delta: float | None = None,
    ):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if delta is not None and not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.n_arms = n_arms
        self.schedule = schedule
        self.horizon = horizon
        self.delta = default_delta(horizon) if delta is None else delta
        self.log_inv_delta = math.log(1.0 / self.delta)
        self.t = 0
        self.r = 1
        self.g = 0.5
        self.g_prev = 0.5  # placeholder; round 1 has no previous half-width
        self.budget = round_budget(self.g, self.delta)
        self.scan_arm = 0
        self.n = 0
        self.mean_cur = 0.0
        self.best: int | None = None
        self.mean_best = 0.0
        self.second: int | None = None
        self.mean_second = 0.0
        self.radius = math.inf  # no pull yet
        self.reference = -math.inf  # no previous round to rule out against
        self.survivors = 0
        self.separated = False
        self.phase = EXPLORE
        if n_arms == 1:
            self.best = 0
            self.phase = EXPLOIT

    @property
    def exploring(self) -> bool:
        return self.phase == EXPLORE

    def select_arm(self) -> int:
        """Arm to pull next; pure read. After the horizon is exhausted
        mid-scan the policy freezes on its best arm so far."""
        if self.phase == EXPLOIT:
            return self.best
        if self.t >= self.horizon:
            return self.best if self.best is not None else self.scan_arm
        return self.scan_arm

    def observe(self, reward: float):
        """Consume the reward of the arm ``select_arm`` returned.

        Returns CONTINUE, RULED_OUT or ARM_DONE for mid-round transitions,
        or a RoundRecord when the observation finished a round. A rule-out
        on the round's final arm is reported through the RoundRecord.
        """
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
        t = self.t
        if t >= self.horizon:
            raise RuntimeError("horizon exhausted: no further observations accepted")
        self.t = t + 1
        if self.phase == EXPLOIT:
            return CONTINUE
        n_old = self.n
        n = n_old + 1
        self.n = n
        mean = (self.mean_cur * n_old + reward) / n
        self.mean_cur = mean
        self.radius = radius = sqrt(self.log_inv_delta / (2.0 * n))
        if mean + radius < self.reference:
            return self._finish_arm(True)
        if n < self.budget:
            return CONTINUE
        return self._finish_arm(False)

    def _finish_arm(self, ruled_out: bool):
        if not ruled_out:
            self.survivors += 1
        arm, mean = self.scan_arm, self.mean_cur
        if self.best is None or mean > self.mean_best:
            self.second, self.mean_second = self.best, self.mean_best
            self.best, self.mean_best = arm, mean
        elif self.second is None or mean > self.mean_second:
            self.second, self.mean_second = arm, mean
        if arm == self.n_arms - 1:
            return self._finish_round()
        self.scan_arm = arm + 1
        self.n = 0
        return RULED_OUT if ruled_out else ARM_DONE

    def _finish_round(self):
        separated = self.mean_best - self.g / 2.0 > self.mean_second + self.g / 2.0
        commit = separated or self.t >= self.horizon
        record = RoundRecord(
            COMMITTED if commit else ROUND_DONE, self.r, self.g, self.g_prev, self.budget,
            self.delta, self.best, self.mean_best, self.second, self.mean_second, separated,
        )
        if commit:
            self.phase = EXPLOIT
            self.separated = separated
            return record
        self.reference = self.mean_best - self.g / 2.0
        fraction = None
        if self.schedule.kind == "adaptive":
            fraction = max(self.survivors, 1) / self.n_arms
        self.g_prev = self.g
        self.g = next_precision(self.g, self.schedule, survivor_fraction=fraction)
        self.budget = round_budget(self.g, self.delta)
        self.r += 1
        self.scan_arm = 0
        self.n = 0
        self.best = None
        self.mean_best = 0.0
        self.second = None
        self.mean_second = 0.0
        self.survivors = 0
        return record

    def advance_exploitation(self, steps: int) -> None:
        """Skip ``steps`` exploitation pulls in bulk; rewards received while
        exploiting never touch any register, so this is step-equivalent."""
        if self.phase != EXPLOIT:
            raise RuntimeError("policy is still exploring")
        if steps < 0 or self.t + steps > self.horizon:
            raise ValueError("steps exceed the remaining horizon")
        self.t += steps

    def state_words(self) -> int:
        """Registers counted from the object; a register holding a container
        raises ``TypeError``."""
        return _state_words(self, scalars_only=True)


class DoublingPolicy:
    """Anytime wrapper: restarts the constant-space policy with squared horizons.

    Level l runs the inner policy for exactly T_l steps with a fresh
    delta = 1/T_l^3, starting from T_0 = 10 and squaring, so T_l = 10^(2^l).
    """

    INITIAL_HORIZON = 10
    # Registers on top of the inner policy's; n_arms, schedule and the inner
    # policy itself are configuration and delegated state, which counts its
    # own words.
    REGISTERS = ("level", "level_horizon", "t_total")
    CONFIG = ("n_arms", "schedule", "inner")
    __slots__ = REGISTERS + CONFIG

    def __init__(self, n_arms: int, schedule: Schedule = GEOMETRIC):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        self.n_arms = n_arms
        self.schedule = schedule
        self.level = 0
        self.level_horizon = self.INITIAL_HORIZON
        self.t_total = 0
        self.inner = ConstSpacePolicy(n_arms, self.level_horizon, schedule)

    @property
    def delta(self) -> float:
        return self.inner.delta

    def select_arm(self) -> int:
        return self.inner.select_arm()

    def observe(self, reward: float):
        report = self.inner.observe(reward)
        self.t_total += 1
        if self.inner.t >= self.level_horizon:
            self._next_level()
        return report

    def _next_level(self) -> None:
        self.level += 1
        self.level_horizon = self.level_horizon**2
        self.inner = ConstSpacePolicy(self.n_arms, self.level_horizon, self.schedule)

    def levels(self):
        """Yield each level's inner policy, a known-horizon episode that the
        caller steps directly instead of through ``select_arm``/``observe``.
        A level's steps are counted once, when the caller asks for the next
        level, which comes only once the current one has run its full
        horizon."""
        while True:
            inner = self.inner
            yield inner
            self.t_total += inner.t
            if inner.t < self.level_horizon:
                return
            self._next_level()

    def state_words(self) -> int:
        return self.inner.state_words() + _state_words(self, scalars_only=True)


class Ucb1Policy:
    """Classic index policy: mean plus sqrt(2 ln t / n), per-arm tables.

    Pulls every arm once first; afterwards plays the argmax index with
    ties going to the lowest arm id. ``observe`` updates the pulled arm's
    entries and computes the next arm, which ``select_arm`` reads; it
    returns ARM_DONE when the next arm differs from the one just pulled and
    CONTINUE when it is the same, so a caller may select once per run of
    pulls of one arm.

    The next arm comes from one O(K) loop of Python floats. It evaluates
    each index at ``t`` and at ``until = t + WINDOW``, and tracks the argmax
    at ``t`` together with ``bound``, the largest ``until``-index of the
    other arms (a displaced leader enters ``bound``). Until ``until`` only
    the chosen arm is pulled, and an arm that is not pulled keeps its count
    and mean, so its index can only grow with t: ``log`` of two distinct
    integers differs by far more than one ulp, and ``*``, ``/``, ``sqrt``
    and ``+`` round monotonically. While ``t <= until``, a pulled arm whose
    own index is strictly above ``bound`` is therefore still the unique
    argmax, and the loop is skipped; the strict compare keeps the lowest-id
    tie-break. Keeps 2K + 4 words of state: the two tables, ``t``, the
    stored next arm, ``bound`` and ``until``.
    """

    WINDOW = 64  # steps a bound is valid for; any value >= 1 gives the same arms
    CONFIG = ("n_arms",)
    __slots__ = CONFIG + ("counts", "means", "t", "arm", "bound", "until")

    def __init__(self, n_arms: int):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        self.n_arms = n_arms
        self.counts = [0] * n_arms
        self.means = [0.0] * n_arms
        self.t = 0
        self.arm = 0
        self.bound = 0.0
        self.until = 0  # no bound before the first full pass

    def select_arm(self) -> int:
        """Pure read of the arm the last ``observe`` chose."""
        return self.arm

    def observe(self, reward: float):
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
        counts, means, arm = self.counts, self.means, self.arm
        n = counts[arm] + 1
        counts[arm] = n
        mean = (means[arm] * (n - 1) + reward) / n
        means[arm] = mean
        self.t = t = self.t + 1
        if t < self.n_arms:
            self.arm = t
            return ARM_DONE
        c = 2.0 * log(t)
        if t <= self.until and mean + sqrt(c / n) > self.bound:
            return CONTINUE
        until = t + self.WINDOW
        c_until = 2.0 * log(until)
        best, top, best_later, bound = 0, -math.inf, -math.inf, -math.inf
        for i in range(self.n_arms):
            mean_i, n_i = means[i], counts[i]
            index, later = mean_i + sqrt(c / n_i), mean_i + sqrt(c_until / n_i)
            if index > top:  # strict: ties keep the lowest arm id
                best, top, best_later, later = i, index, later, best_later
            if later > bound:  # after a lead change, ``later`` is the displaced leader's
                bound = later
        self.arm, self.bound, self.until = best, bound, until
        return CONTINUE if best == arm else ARM_DONE

    def state_words(self) -> int:
        return _state_words(self)


def make_policy(config: PolicyConfig, n_arms: int, horizon: int):
    """Fresh policy state for an episode of ``horizon`` steps.

    Only the constant-space policy is told the horizon. The doubling
    wrapper, picked by name, runs without it and manages its own per-level
    confidence, so any delta override is rejected there.
    """
    if config.name == "ucb1":
        return Ucb1Policy(n_arms)
    if config.name == "doubling":
        if config.delta_override is not None:
            raise ValueError("doubling wrapper sets delta per level; no override")
        return DoublingPolicy(n_arms, config.schedule)
    return ConstSpacePolicy(n_arms, horizon, config.schedule, delta=config.delta_override)
