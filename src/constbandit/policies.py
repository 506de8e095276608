"""Step-driven bandit policies with word-level state accounting.

``state_words()`` counts the machine-word registers a policy retains
between steps. The constant-space and UCB1 policies are stepped alike:
``select_arm()`` is a pure read returning the arm to pull next,
``observe(reward)`` consumes the reward of that arm and returns a
transition report, and the segment kernel ``scan(arm, draw, limit, mu)``
pulls one arm until its scan ends, applying the CONTINUE pulls it can
prove itself and handing ``observe`` the rest. The doubling wrapper's
``levels()`` hands out a constant-space policy per level to step.

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
import re
from dataclasses import dataclass
from itertools import count, islice
from math import floor, log, sqrt

from .confidence import Rule, round_budget
from .schedules import GEOMETRIC, Schedule, next_precision

EXPLORE = "explore"
EXPLOIT = "exploit"

CONTINUE = "continue"
RULED_OUT = "ruled_out"
ARM_DONE = "arm_done"
ROUND_DONE = "round_done"
COMMITTED = "committed"


@dataclass(frozen=True)
class PolicyConfig:
    """Named policy plus its schedule and confidence rule.

    Written as the spec ``name[-schedule][@delta]``, e.g. ``ucb1`` or
    ``constspace-polylog(0.5)@0.01``; ``label`` and ``parse`` are inverses.
    ``rule`` is a ``confidence.Rule``, which checks the delta. Only
    ``constspace`` takes a rule other than the default, since the doubling
    wrapper uses the default at each level.
    """

    name: str
    schedule: Schedule = GEOMETRIC
    rule: Rule = Rule()

    def __post_init__(self):
        if self.name not in ("constspace", "doubling", "ucb1"):
            raise ValueError(f"unknown policy {self.name!r}")
        if self.name == "ucb1" and self.schedule != GEOMETRIC:
            raise ValueError("ucb1 takes no schedule")
        if self.rule != Rule() and self.name != "constspace":
            raise ValueError(f"delta applies to constspace only, not {self.name}")

    def schedule_label(self) -> str:
        """The CSV ``schedule`` column: the schedule's label, ``-`` for UCB1,
        then the rule's ``@delta``, if any."""
        return ("-" if self.name == "ucb1" else self.schedule.label()) + self.rule.label()

    def label(self) -> str:
        """Spec string; ``parse`` gives the config back."""
        return "ucb1" if self.name == "ucb1" else f"{self.name}-{self.schedule_label()}"

    @classmethod
    def parse(cls, text: str) -> "PolicyConfig":
        """Inverse of ``label()``; the schedule defaults to geometric and
        follows ``Schedule.parse``. Raises ValueError otherwise."""
        m = re.fullmatch(r"(constspace|doubling|ucb1)(?:-([^@]+))?(?:@(.*))?", text.strip())
        if m is None:
            raise ValueError(f"cannot parse policy spec {text!r}")
        name, schedule, delta = m.groups()
        if name == "ucb1" and schedule is not None:
            raise ValueError("ucb1 takes no schedule")
        schedule = GEOMETRIC if schedule is None else Schedule.parse(schedule)
        return cls(name, schedule, Rule() if delta is None else Rule(float(delta)))


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


# Rounding allowance per unchecked pull. The scan's recurrence rounds its
# running mean by at most about 3 * 2**-53 a pull, and ``_next_check``'s own
# arithmetic, on values below 32, by less than 2**-45 in all.
_MARGIN = 2.0**-40


def _next_check(k, m, rad, reference, half, budget, mu):
    """The next pull of an arm's scan on which a check can fire, after a
    checked pull ``k`` (a float count below ``budget``) left running mean
    ``m`` and radius ``rad = sqrt(half / k)``. ``mu`` is the arm's true mean
    while the episode is clean, None after. The result is a float count in
    ``k + 1 .. budget``.

    It returns ``k + j + 1``, for a ``j`` that starts from the first-order
    slack and is halved until both tests pass at pull ``p = k + j``. That
    proves no pull ``k + 1 .. k + j`` can fire either check: ``i <= j``
    more rewards in [0, 1] leave the mean at ``(k * m + S) / (k + i)`` with
    ``0 <= S <= i``, so within ``i / (k + i) <= j / p`` of ``m`` and at
    least ``k * m / p``; the computed radius ``sqrt(half / n)`` never grows
    with ``n``, since division and ``sqrt`` round monotonically; and
    ``reference`` is fixed within a round. ``j * _MARGIN`` covers the
    rounding of the scan's recurrence and of the tests below, so a skipped
    pull is one whose float checks would not have fired.
    """
    slack = m + rad - reference
    if mu is not None:
        slack = min(slack, rad - abs(m - mu))
    j = floor(min(k * slack, budget - 1.0 - k))
    while j > 0:
        p = k + j
        r = sqrt(half / p)
        if k * m / p + r - j * _MARGIN >= reference and (
            mu is None or abs(m - mu) + j / p + j * _MARGIN <= r
        ):
            break
        j //= 2
    return k + j + 1.0


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

    ``rule`` (a ``confidence.Rule``) sets the ``delta`` register from the
    horizon; each round's budget is sized from ``log_inv_delta = ln(1/delta)``.

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

    Caller contract: while exploring, a pull that reports CONTINUE changes
    only ``t``, ``n``, ``mean_cur`` and ``radius``. So a caller may apply an
    arm's CONTINUE pulls itself, with ``observe``'s ``[0, 1]`` reward check
    and values bit-equal to its expressions ``(mean_cur * n + reward) /
    (n + 1)`` and ``sqrt(log_inv_delta / (2.0 * (n + 1)))``, as long as it
    writes ``n`` (an int), ``mean_cur``, ``radius`` and ``t`` back before it
    hands ``observe`` the pull that rules the arm out or reaches ``budget``,
    and before it stops. It may skip computing the radius on pulls where it
    has proved that neither test can fire, but the ``radius`` it writes back
    must be ``observe``'s value for the final ``n``. ``scan`` does this.
    """

    # Mutable scalar registers retained between steps. Configuration
    # (n_arms, schedule, rule) counts as input, not estimator state.
    CONFIG = ("n_arms", "schedule", "rule")
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

    def __init__(self, n_arms: int, horizon: int, schedule: Schedule = GEOMETRIC, rule: Rule = Rule()):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.n_arms = n_arms
        self.schedule = schedule
        self.rule = rule
        self.horizon = horizon
        self.delta = rule.delta_for(horizon)
        self.log_inv_delta = math.log(1.0 / self.delta)
        self.t = 0
        self.r = 1
        self.g = 0.5
        self.g_prev = 0.5  # placeholder; round 1 has no previous half-width
        self.budget = round_budget(self.g, self.log_inv_delta)
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

    def scan(self, arm, draw, limit, mu):
        """Pull ``arm``, the one ``select_arm`` returned while exploring, from
        ``draw(arm)`` until its scan ends or ``limit`` pulls are served.
        ``mu`` is the arm's true mean while the episode is clean, None after.
        Returns the pulls served, the report of the last (CONTINUE if the
        limit ended the scan) and whether the clean check still holds.

        The CONTINUE pulls are applied here, under the caller contract above:
        every pull gets ``observe``'s ``[0, 1]`` reward check and running mean
        ``(mean * n + reward) / n1``. The radius ``sqrt((log_inv_delta / 2.0)
        / n1)``, the clean check (running mean against radius) and the test
        for a rule-out or the budget run only on checked pulls, the first of
        the scan and each one ``_next_check`` returns. ``_next_check`` proves
        that no test could fire on the pulls between two checked pulls, so
        that window (cut at the limit) runs in an inner loop, two pulls per
        iteration plus one when its length is odd, with the same draw,
        check and recurrence per pull; each reward is checked before the
        next is drawn. On the checked pull that rules the arm out or reaches
        its budget, the scan writes ``n``, ``mean_cur``, ``radius``
        (``sqrt(half / n)``, once) and ``t`` back and hands that reward to
        ``observe``, which reports the transition or closes the round. A
        scan that ends at the limit writes back and calls nothing. Once the
        clean check fails, checked pulls test only the rule-out and the
        budget.

        The scan carries ``n``, ``n1`` and ``budget`` as floats, because
        float-with-float arithmetic is the faster path, and writes ``int(n)``
        back. Each count adds 1.0 to the one before; a window's pairs take
        their first counts from ``itertools.count(n + 1.0, 2.0)``, which
        adds 2.0, the cheapest way to make float counts. The values are
        those of ``observe``'s int counts, bit for bit: a count is at most
        the pulls stepped, an integer below 2**53, and every integer in that
        range is exactly a float, so converting it and adding 1.0 or 2.0 to
        another are all exact; ``observe``'s mixed int-float arithmetic
        converts its int count the same way. A budget of 2**53 or more
        equals no reachable count, whether compared as an int or as a float.
        Halving ``log_inv_delta`` is exact too, so ``(L / 2.0) / n1``
        rounds the same real number as ``observe``'s ``L / (2.0 * n1)``.
        """
        clean, mean = mu is not None, self.mean_cur
        first, hi = self.n, min(self.budget, self.n + limit)
        n, stop, budget, reference = float(first), float(hi), float(self.budget), self.reference
        half = self.log_inv_delta / 2.0
        last = None
        while n < stop:
            n1 = n + 1.0
            reward = draw(arm)
            if not 0.0 <= reward <= 1.0:
                raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
            m = (mean * n + reward) / n1
            rad = sqrt(half / n1)
            if clean and abs(m - mu) > rad:
                clean = False
            if m + rad < reference or n1 == budget:
                last = reward
                break
            check = _next_check(n1, m, rad, reference, half, budget, mu if clean else None)
            n, mean = n1, m
            free = int(min(check - 1.0, stop) - n)
            for n1 in islice(count(n + 1.0, 2.0), free >> 1):
                reward = draw(arm)
                if not 0.0 <= reward <= 1.0:
                    raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
                mean = (mean * n + reward) / n1
                n = n1 + 1.0
                reward = draw(arm)
                if not 0.0 <= reward <= 1.0:
                    raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
                mean = (mean * n1 + reward) / n
            if free & 1:
                n1 = n + 1.0
                reward = draw(arm)
                if not 0.0 <= reward <= 1.0:
                    raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
                n, mean = n1, (mean * n + reward) / n1
        if n > first:
            self.radius = sqrt(half / n)
        n = int(n)
        self.n, self.mean_cur = n, mean
        self.t += n - first
        if last is None:
            return n - first, CONTINUE, clean
        return n - first + 1, self.observe(last), clean

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
        self.budget = round_budget(self.g, self.log_inv_delta)
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

    Level l runs the inner policy for exactly T_l steps under the default
    ``Rule()``, so with a fresh ``inner.delta`` = 1/T_l^3, starting from
    T_0 = 10 and squaring, so T_l = 10^(2^l). The wrapper is stepped only
    through ``levels()``.
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

    @classmethod
    def level_horizons(cls, horizon: int):
        """Yield T_0, T_1, ... for every level an episode of ``horizon``
        steps reaches: those that start before the levels so far add up to
        ``horizon``."""
        level_horizon, covered = cls.INITIAL_HORIZON, 0
        while covered < horizon:
            yield level_horizon
            covered += level_horizon
            level_horizon = level_horizon**2

    def levels(self):
        """Yield each level's inner policy, a known-horizon episode that the
        caller steps itself. A level's steps are counted once, when the
        caller asks for the next level, which comes only once the current
        one has run its full horizon: the horizon is squared and a fresh
        inner policy runs it."""
        while True:
            inner = self.inner
            yield inner
            self.t_total += inner.t
            if inner.t < self.level_horizon:
                return
            self.level += 1
            self.level_horizon = self.level_horizon**2
            self.inner = ConstSpacePolicy(self.n_arms, self.level_horizon, self.schedule)

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
    each index at ``t`` and at ``until = t + WINDOW`` and tracks the argmax
    at ``t``. Among the other arms (a displaced leader joins them as it is
    displaced) it tracks the top two ``until``-indexes: ``rival`` is the arm
    with the largest, ``bound`` that index, and ``bound2`` the largest of
    the arms other than ``arm`` and ``rival``. An arm that is not pulled
    keeps its count and mean, so its index can only grow with t: ``log`` of
    two distinct integers differs by far more than one ulp, and ``*``,
    ``/``, ``sqrt`` and ``+`` round monotonically. Until ``until`` only
    ``arm`` and ``rival`` are pulled, so every other arm's index stays at or
    below ``bound2``. While ``t <= until``:

    - a pulled arm whose index is strictly above ``bound`` is still the
      unique argmax, and the loop is skipped;
    - one strictly above ``bound2`` is compared with the rival's index at
      ``t``, computed as the loop would. The strictly larger of the two is
      the unique argmax. If it is the rival, the two swap with no loop:
      ``bound`` becomes the larger of the old arm's ``until``-index and
      ``bound2``, and ``bound2`` and ``until`` stay.

    An exact tie with the rival, an index at or below ``bound2`` and an
    expired window run the loop, whose strict compare keeps the lowest-id
    tie-break. Keeps 2K + 6 words of state: the two tables, ``t``, the
    stored next arm, ``rival``, ``bound``, ``bound2`` and ``until``.

    Caller contract: a pull with ``n_arms <= t <= until`` that reports
    CONTINUE because its index is strictly above ``bound`` changes only
    ``t`` and the pulled arm's ``counts`` and ``means`` entries. So a caller may apply such pulls
    itself, with ``observe``'s ``[0, 1]`` reward check and values bit-equal
    to its expressions ``(means[arm] * n + reward) / (n + 1)`` and
    ``mean + sqrt(2.0 * log(t) / (n + 1))``, as long as it writes
    ``counts[arm]`` (an int), ``means[arm]`` and ``t`` back before it hands
    ``observe`` any other pull, and before it stops. It may test a pull
    against a smaller index that implies ``observe``'s test, as long as a
    pull that fails it goes to ``observe``. ``scan`` does this.
    """

    WINDOW = 64  # steps a bound is valid for; any value >= 1 gives the same arms
    CONFIG = ("n_arms",)
    __slots__ = CONFIG + ("counts", "means", "t", "arm", "rival", "bound", "bound2", "until")

    def __init__(self, n_arms: int):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        self.n_arms = n_arms
        self.counts = [0] * n_arms
        self.means = [0.0] * n_arms
        self.t = 0
        self.arm = 0
        self.rival = 0
        self.bound = 0.0
        self.bound2 = 0.0
        self.until = 0  # no bounds before the first full pass

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
        if t <= self.until:
            index = mean + sqrt(c / n)
            if index > self.bound:
                return CONTINUE
            if index > self.bound2:
                rival = self.rival
                rival_index = means[rival] + sqrt(c / counts[rival])
                if index > rival_index:
                    return CONTINUE
                if rival_index > index:
                    self.arm, self.rival = rival, arm
                    self.bound = max(mean + sqrt(2.0 * log(self.until) / n), self.bound2)
                    return ARM_DONE
        until = t + self.WINDOW
        c_until = 2.0 * log(until)
        best, top, best_later = 0, -math.inf, -math.inf
        rival, bound, bound2 = 0, -math.inf, -math.inf
        for i in range(self.n_arms):
            mean_i, n_i = means[i], counts[i]
            index, later = mean_i + sqrt(c / n_i), mean_i + sqrt(c_until / n_i)
            if index > top:  # strict: ties keep the lowest arm id
                # the displaced leader takes this arm's place among the others
                best, top, best_later, i, later = i, index, later, best, best_later
            if later > bound2:
                if later > bound:
                    rival, bound, bound2 = i, later, bound
                else:
                    bound2 = later
        self.arm, self.rival, self.bound, self.bound2, self.until = best, rival, bound, bound2, until
        return CONTINUE if best == arm else ARM_DONE

    def scan(self, arm, draw, limit, mu):
        """Pull ``arm``, the one ``select_arm`` returned, from ``draw(arm)``
        until ``observe`` reports ARM_DONE or ``limit`` pulls are served.
        Returns the pulls served, the report of the last (CONTINUE if the
        limit ended the run) and False: UCB1 has no clean event, so ``mu`` is
        not read.

        While ``n_arms <= t < until``, the next pull ``t1 = t + 1`` takes
        ``observe``'s windowed path. If the arm's index before it, ``mean +
        sqrt(c0 / n)`` with ``c0 = 2.0 * log(t1)``, is above ``bound``, the
        scan applies a stretch of pulls in locals under the caller contract
        above: one ``draw``, the ``[0, 1]`` check and the recurrence ``(mean
        * n + reward) / n1`` a pull, on float counts from ``count(n + 1.0)``,
        then the test ``m + sqrt(c0 / n1) > bound``. It writes
        ``counts[arm]`` (an int), ``means[arm]`` and ``t`` back, and the pull
        that fails the test goes to ``observe``, which recomputes it exactly. So do the first
        ``n_arms`` pulls, any after ``until``, and a pull whose arm's index
        was already at or below ``bound``, which would most likely fail the
        test after a stretch's setup.

        The test is exact. The counts and the recurrence are ``observe``'s,
        bit for bit, for the reasons ``ConstSpacePolicy.scan`` gives: counts
        stay below 2**53. ``log`` is non-decreasing on integers: below 2**44
        two consecutive ones differ by more than 16 ulps of their ``log``,
        far beyond any libm's error, and a Hypothesis test checks the rest
        up to 2**53. ``* 2.0`` is exact, and ``/``, ``sqrt`` and ``+`` round
        monotonically. So at any pull ``t >= t1`` of the stretch ``m +
        sqrt(c0 / n1)`` is at most ``observe``'s index ``m + sqrt(2.0 *
        log(t) / n1)``, and a pull that passes the test is one that
        ``observe`` would report CONTINUE on its first compare. A stretch
        ends by ``until``, so every pull in it has ``t <= until``.
        """
        observe, counts, means, n_arms = self.observe, self.counts, self.means, self.n_arms
        served = 0
        while served < limit:
            t, first = self.t, counts[arm]
            n, mean, bound, c0 = float(first), means[arm], self.bound, 2.0 * log(t + 1)
            if n_arms <= t < self.until and mean + sqrt(c0 / n) > bound:
                for n1 in islice(count(n + 1.0), min(self.until - t, limit - served)):
                    reward = draw(arm)
                    if not 0.0 <= reward <= 1.0:
                        raise ValueError(f"reward must lie in [0, 1], got {reward!r}")
                    m = (mean * n + reward) / n1
                    if not m + sqrt(c0 / n1) > bound:
                        break
                    n, mean = n1, m
                else:
                    reward = None
                if n > first:
                    counts[arm], means[arm], self.t = int(n), mean, t + int(n) - first
                    served += int(n) - first
                if reward is None:
                    continue
            else:
                reward = draw(arm)
            report = observe(reward)
            served += 1
            if report is not CONTINUE:
                return served, report, False
        return served, CONTINUE, False

    def state_words(self) -> int:
        return _state_words(self)


def make_policy(config: PolicyConfig, n_arms: int, horizon: int):
    """Fresh policy state for an episode of ``horizon`` steps; only the
    constant-space policy is told the horizon and the config's rule."""
    if config.name == "ucb1":
        return Ucb1Policy(n_arms)
    if config.name == "doubling":
        return DoublingPolicy(n_arms, config.schedule)
    return ConstSpacePolicy(n_arms, horizon, config.schedule, config.rule)
