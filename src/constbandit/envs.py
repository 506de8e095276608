"""Stochastic bandit instances over [0,1] rewards, with seeded sampling.

Reward streams are indexed by (arm, pull-count): each arm owns an
independent PCG64 substream derived from SeedSequence(seed, spawn_key=(arm,)),
so two policies that pull arms in different orders still see identical
per-arm reward sequences. This keeps cross-policy comparisons
deterministic and lower-variance. Draws are buffered in fixed chunks of
256, which pins the exact stream for every arm kind; golden-value tests
freeze the first draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import GapProfile

PRESET_NAMES = ("two_group", "two_group_ex1", "two_group_ex2", "linear", "custom")

_CHUNK = 256


@dataclass(frozen=True)
class Arm:
    """One arm's reward distribution: bernoulli(p), beta(alpha, beta) or a point mass."""

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.kind == "bernoulli":
            if not 0.0 <= self.a <= 1.0:
                raise ValueError("bernoulli parameter must lie in [0, 1]")
        elif self.kind == "beta":
            if self.a <= 0.0 or self.b <= 0.0:
                raise ValueError("beta shape parameters must be positive")
        elif self.kind == "point":
            if not 0.0 <= self.a <= 1.0:
                raise ValueError("point mass must lie in [0, 1]")
        else:
            raise ValueError(f"unknown arm kind {self.kind!r}")

    @property
    def mean(self) -> float:
        if self.kind == "beta":
            return self.a / (self.a + self.b)
        return self.a


def bernoulli(p: float) -> Arm:
    return Arm("bernoulli", float(p))


def beta_arm(alpha: float, beta: float) -> Arm:
    return Arm("beta", float(alpha), float(beta))


def point_mass(value: float) -> Arm:
    return Arm("point", float(value))


@dataclass(frozen=True)
class BanditInstance:
    """Immutable set of arms; the ground truth an experiment runs against."""

    arms: tuple[Arm, ...]
    label: str = ""

    def __post_init__(self):
        if not self.arms:
            raise ValueError("instance needs at least one arm")

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @cached_property
    def means(self) -> tuple[float, ...]:
        return tuple(arm.mean for arm in self.arms)

    @cached_property
    def best(self) -> int:
        """Index of the highest mean; ties go to the lowest index."""
        means = self.means
        return max(range(len(means)), key=lambda i: (means[i], -i))

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        top = self.means[self.best]
        return tuple(top - m for m in self.means)

    @cached_property
    def gap_profile(self) -> GapProfile:
        return GapProfile(self.gaps)

    @property
    def delta_min(self) -> float | None:
        return self.gap_profile.delta_min

    @property
    def is_degenerate(self) -> bool:
        """True when several arms share the top mean, leaving no positive gap."""
        return self.n_arms > 1 and self.gap_profile.is_degenerate


class RewardStream:
    """Seeded reward source; ``draw(arm)`` yields the arm's next sample.

    Per arm: [generator, chunk, index into chunk], the chunk a list of
    Python floats. ``draw`` on a buffered pull only reads and moves the
    index; arm checks and generation happen on the refill path. ``skip``
    only moves the index, maybe past the chunk; ``_refill`` generates the
    chunks passed over when the arm is next drawn. A point arm keeps no
    state and always takes the refill path.
    """

    def __init__(self, instance: BanditInstance, seed: int):
        self.instance = instance
        self.seed = int(seed)
        self._buffers: dict[int, list] = {}

    def _refill(self, arm: int) -> list:
        state = self._buffers.setdefault(arm, [None, None, _CHUNK])
        if state[0] is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(arm,))
            state[0] = np.random.Generator(np.random.PCG64(seq))
        gen = state[0]
        spec = self.instance.arms[arm]
        chunks, state[2] = divmod(state[2], _CHUNK)
        if spec.kind == "bernoulli":
            for _ in range(chunks):
                uniform = gen.random(_CHUNK)
            state[1] = (uniform < spec.a).astype(np.float64).tolist()
        else:
            for _ in range(chunks):
                chunk = gen.beta(spec.a, spec.b, size=_CHUNK)
            state[1] = chunk.tolist()
        return state

    def draw(self, arm: int) -> float:
        try:
            state = self._buffers[arm]
            i = state[2]
            if i < _CHUNK:
                state[2] = i + 1
                return state[1][i]
        except KeyError:  # not drawn or skipped yet, a point arm, or a bad arm
            pass
        return self._draw_refilled(arm)

    def _draw_refilled(self, arm: int) -> float:
        self._check_arm(arm)
        spec = self.instance.arms[arm]
        if spec.kind == "point":
            return spec.a
        state = self._refill(arm)
        i = state[2]
        state[2] = i + 1
        return state[1][i]

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.instance.n_arms:
            raise IndexError(f"arm {arm} out of range for {self.instance.n_arms} arms")

    def skip(self, arm: int, n: int) -> None:
        """Leave the arm's stream where ``n`` calls of ``draw`` would."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._check_arm(arm)
        if self.instance.arms[arm].kind != "point":
            self._buffers.setdefault(arm, [None, None, _CHUNK])[2] += n


def make_custom(means, kind: str = "bernoulli", label: str = "") -> BanditInstance:
    """Instance with the given means, one arm each (bernoulli or point mass)."""
    means = list(means)
    if not means:
        raise ValueError("means must be non-empty")
    if kind not in ("bernoulli", "point"):
        raise ValueError("custom arms must be bernoulli or point")
    for m in means:
        if not 0.0 <= m <= 1.0:
            raise ValueError(f"mean {m} outside [0, 1]")
    ctor = bernoulli if kind == "bernoulli" else point_mass
    if not label:
        body = ",".join(f"{m:g}" for m in means)
        label = f"custom({body})" if kind == "bernoulli" else f"custom({body};point)"
    return BanditInstance(tuple(ctor(m) for m in means), label)


def make_linear_gaps(K: int, best_mean: float = 1.0) -> BanditInstance:
    """Gap ladder {0, 1/K, ..., (K-1)/K}; the smallest positive gap is 1/K."""
    if K < 2:
        raise ValueError("linear instance needs K >= 2")
    if not (K - 1) / K <= best_mean <= 1.0:
        raise ValueError("best_mean must lie in [(K-1)/K, 1] to keep means in [0, 1]")
    arms = tuple(bernoulli(best_mean - i / K) for i in range(K))
    return BanditInstance(arms, f"linear(K={K})")


def make_two_group(
    K: int,
    s: float,
    low_gap: float,
    high_gap: float,
    best_mean: float = 0.9,
    regime: str | None = None,
) -> BanditInstance:
    """One best arm plus floor(s*K)-1 arms at gap low_gap and the rest at high_gap.

    ``regime`` optionally enforces one of the two interesting parameter
    regimes: "ex1" needs a majority of near-optimal arms (s > 1/2) with
    high_gap >= 10 * low_gap; "ex2" needs a minority, s < 1/2 with
    s/(1-s) < low_gap/high_gap, again well-separated gaps.
    """
    if K < 3:
        raise ValueError("two-group instance needs K >= 3")
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if not 0.0 < low_gap < high_gap < 1.0:
        raise ValueError("gaps must satisfy 0 < low_gap < high_gap < 1")
    if not high_gap <= best_mean <= 1.0:
        raise ValueError("best_mean must lie in [high_gap, 1] to keep means in [0, 1]")
    n_low = math.floor(s * K + 1e-9)  # tolerate float wobble in s*K
    if n_low < 1 or K - n_low < 1:
        raise ValueError("s*K must leave at least one arm in each group")
    if regime == "ex1":
        if not (s > 0.5 and high_gap >= 10.0 * low_gap):
            raise ValueError("ex1 regime needs s > 1/2 and high_gap >= 10*low_gap")
    elif regime == "ex2":
        if not (s < 0.5 and s / (1.0 - s) < low_gap / high_gap and high_gap >= 10.0 * low_gap):
            raise ValueError(
                "ex2 regime needs s < 1/2, s/(1-s) < low_gap/high_gap and high_gap >= 10*low_gap"
            )
    elif regime is not None:
        raise ValueError(f"unknown regime {regime!r}")
    arms = [bernoulli(best_mean)]
    arms += [bernoulli(best_mean - low_gap)] * (n_low - 1)
    arms += [bernoulli(best_mean - high_gap)] * (K - n_low)
    label = f"two_group(K={K},s={s:g},eps={low_gap:g},E={high_gap:g},mu={best_mean:g})"
    return BanditInstance(tuple(arms), label)


def build_preset(name: str, **params) -> BanditInstance:
    """Construct an instance preset addressable by name from the CLI or config."""
    if name == "custom":
        unknown = set(params) - {"means", "kind"}
        if unknown:
            raise ValueError(f"unknown custom parameter(s): {sorted(unknown)}")
        if "means" not in params:
            raise ValueError("custom preset requires 'means'")
        return make_custom(params["means"], kind=params.get("kind", "bernoulli"))
    if name == "linear":
        unknown = set(params) - {"K", "best_mean"}
        if unknown:
            raise ValueError(f"unknown linear parameter(s): {sorted(unknown)}")
        return make_linear_gaps(int(params.get("K", 16)), params.get("best_mean", 1.0))
    if name in ("two_group", "two_group_ex1", "two_group_ex2"):
        regime = {"two_group": None, "two_group_ex1": "ex1", "two_group_ex2": "ex2"}[name]
        defaults = {
            None: dict(K=8, s=0.5, low_gap=0.1, high_gap=0.5, best_mean=0.9),
            "ex1": dict(K=16, s=0.75, low_gap=0.02, high_gap=0.5, best_mean=0.9),
            "ex2": dict(K=50, s=0.08, low_gap=0.05, high_gap=0.5, best_mean=0.9),
        }[regime]
        merged = {**defaults, **{k: v for k, v in params.items() if k in defaults}}
        unknown = set(params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown two_group parameter(s): {sorted(unknown)}")
        merged["K"] = int(merged["K"])
        return make_two_group(regime=regime, **merged)
    raise ValueError(f"unknown instance preset {name!r}; choose from {PRESET_NAMES}")
