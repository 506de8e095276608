"""Stochastic bandit instances over [0,1] rewards, with seeded sampling.

Reward streams are indexed by (arm, pull-count): each arm owns an
independent PCG64 substream derived from SeedSequence(seed, spawn_key=(arm,)),
so two policies that pull arms in different orders still see identical
per-arm reward sequences. This keeps cross-policy comparisons
deterministic and lower-variance. Draws are buffered in chunks of
``_CHUNK``; the chunk size sets only the cost of a refill and the memory a
stream holds, not the values, since a bernoulli draw takes one generator
output and numpy's beta sampler draws one element at a time. A bernoulli
chunk holds references to two shared floats, 0.0 and 1.0, so it costs one
list of pointers, not a new float object per draw. Golden-value tests
freeze the draws at several pull indices.

Instance presets are named by a spec such as ``linear(K=16)`` or
``custom(means=0.9|0.6,kind=point)``, or by the same keys in a config
file's ``[instance]`` section. This module alone knows the presets, their
keys and defaults, and how each key is read from text: ``parse_spec`` turns
a spec into its section, and ``build_preset`` builds a section. An
instance gives its ``gaps`` and ``delta_min`` as plain floats, which is all
``bounds`` reads, so this module imports nothing from it.

numpy is imported when the first bernoulli or beta chunk is generated, by a
draw or by a skip, not when this module is, so ``import constbandit`` and
work that draws no random reward (bounds, point-mass episodes) never load it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import islice
from operator import length_hint

_CHUNK = 1024
_SPENT = iter(())  # the iterator of every arm not drawn yet


@cache
def _bits():
    """The object array ``[0.0, 1.0]`` every bernoulli chunk gathers from, so
    its entries are references to two shared floats. Read-only, since every
    stream shares it."""
    import numpy as np

    bits = np.array([0.0, 1.0], dtype=object)
    bits.flags.writeable = False
    return bits


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
    def delta_min(self) -> float | None:
        """Smallest positive gap, or None when every arm is optimal."""
        return min((g for g in self.gaps if g > 0.0), default=None)


class RewardStream:
    """Seeded reward source; ``draw(arm)`` yields the arm's next sample.

    Per arm: a numpy generator in ``_gens`` (bernoulli and beta arms), and
    in slot ``arm`` of the list ``_iters`` an iterator over the rest of its
    1024-draw chunk, a list of Python floats. A bernoulli chunk gathers
    them from ``_bits()``, by the uint8 view of ``random < p``, so each
    entry is one of two shared objects, 0.0 or 1.0. The iterator is the only
    record of the arm's place: its index is ``_CHUNK`` less the items left.
    The slot of an arm not drawn yet holds the spent ``_SPENT``, so the arm
    sits at the end of a chunk. A buffered ``draw`` of an arm ``>= 0`` is
    one compare, one list index and one ``next``. A negative arm, an arm
    past the list and a spent slot reach the range check, which rejects a
    bad arm, and a valid arm refills through ``_seek``, as ``skip`` moves
    it. A seek within the chunk drops items; a seek past it generates the
    chunk it lands in. A bernoulli generator jumps the chunks passed over
    in one ``advance``, so a skip of any length costs one chunk; a beta
    sampler consumes a varying number of generator outputs, so a beta arm
    generates every chunk passed over. A point arm has no generator and
    rebuilds its chunk from its value.
    """

    def __init__(self, instance: BanditInstance, seed: int):
        self.instance = instance
        self.seed = int(seed)
        self._gens = {}  # arm -> numpy generator
        self._iters = [_SPENT] * instance.n_arms  # slot arm -> rest of its chunk

    def _seek(self, arm: int, n: int) -> None:
        """Move the arm's iterator on by ``n`` pulls."""
        it = self._iters[arm]
        chunks, i = divmod(_CHUNK - length_hint(it) + n, _CHUNK)
        if not chunks:
            next(islice(it, n, n), None)
            return
        spec = self.instance.arms[arm]
        if spec.kind == "point":
            chunk = [spec.a] * _CHUNK
        else:
            import numpy as np

            gen = self._gens.get(arm)
            if gen is None:
                seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(arm,))
                self._gens[arm] = gen = np.random.Generator(np.random.PCG64(seq))
            if spec.kind == "bernoulli":
                # ``random`` takes one 64-bit output per double, so advancing
                # the generator past the skipped chunks leaves it where
                # drawing them would.
                if chunks > 1:
                    gen.bit_generator.advance(_CHUNK * (chunks - 1))
                # Gather by the uint8 view: indexing with the bool mask
                # itself would select entries, not map them.
                chunk = _bits()[(gen.random(_CHUNK) < spec.a).view(np.uint8)].tolist()
            else:
                for _ in range(chunks):
                    sample = gen.beta(spec.a, spec.b, size=_CHUNK)
                chunk = sample.tolist()
        self._iters[arm] = it = iter(chunk)
        next(islice(it, i, i), None)

    def draw(self, arm: int) -> float:
        if arm >= 0:  # a negative index would read a real arm's slot from the end
            try:
                return next(self._iters[arm])
            except (IndexError, StopIteration):  # no chunk yet, chunk spent, or past the list
                pass
        self._check_arm(arm)
        self._seek(arm, 0)
        return next(self._iters[arm])

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.instance.n_arms:
            raise IndexError(f"arm {arm} out of range for {self.instance.n_arms} arms")

    def skip(self, arm: int, n: int) -> None:
        """Leave the arm's stream where ``n`` calls of ``draw`` would."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._check_arm(arm)
        self._seek(arm, n)


def make_custom(means, kind: str = "bernoulli") -> BanditInstance:
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


def _read_means(text: str) -> list[float]:
    return [float(x) for x in re.split(r"[|,]", text) if x.strip()]


# How each instance key is read from text; any other key is a float.
_READERS = {"means": _read_means, "K": int, "kind": str}

# Each preset's builder and its keys' defaults; a key whose default is None
# is required.
_PRESETS = {
    "two_group": (
        partial(make_two_group, regime=None),
        {"K": 8, "s": 0.5, "low_gap": 0.1, "high_gap": 0.5, "best_mean": 0.9},
    ),
    "two_group_ex1": (
        partial(make_two_group, regime="ex1"),
        {"K": 16, "s": 0.75, "low_gap": 0.02, "high_gap": 0.5, "best_mean": 0.9},
    ),
    "two_group_ex2": (
        partial(make_two_group, regime="ex2"),
        {"K": 50, "s": 0.08, "low_gap": 0.05, "high_gap": 0.5, "best_mean": 0.9},
    ),
    "linear": (make_linear_gaps, {"K": 16, "best_mean": 1.0}),
    "custom": (make_custom, {"means": None, "kind": "bernoulli"}),
}


def parse_spec(text: str) -> dict[str, str]:
    """The ``[instance]`` section a spec such as 'linear(K=16)' or
    'custom(means=0.9|0.6,kind=point)' stands for: ``name`` and each key's text."""
    m = re.fullmatch(r"(?P<name>[a-z_0-9]+)(?:\((?P<args>.*)\))?", text.strip())
    if not m:
        raise ValueError(f"cannot parse instance spec {text!r}")
    args = {}
    for part in (m["args"] or "").split(","):
        if part.strip():
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"expected key=value, got {part!r}")
            args[key.strip()] = value.strip()
    if "name" in args:  # the name comes before the brackets
        raise ValueError(f"unknown key 'name' for preset {m['name']!r}")
    return {"name": m["name"], **args}


def build_preset(section) -> BanditInstance:
    """Build the preset an ``[instance]`` section names, given as a mapping or
    as ``(key, text)`` pairs: ``name`` plus any of that preset's keys."""
    params = dict(section)
    name = params.pop("name", "")
    if name not in _PRESETS:
        raise ValueError(f"name: unknown preset {name!r}; choose from {tuple(_PRESETS)}")
    builder, defaults = _PRESETS[name]
    for key, text in params.items():
        if key not in defaults:
            raise ValueError(f"unknown key {key!r} for preset {name!r}")
        try:
            params[key] = _READERS.get(key, float)(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    params = {**defaults, **params}
    for key, value in params.items():
        if value is None:
            raise ValueError(f"preset {name!r} requires {key!r}")
    return builder(**params)
