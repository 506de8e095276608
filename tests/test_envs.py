import math
import tracemalloc
from operator import length_hint

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from constbandit import (
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
from constbandit.envs import _CHUNK


def test_arm_means_and_validation():
    assert bernoulli(0.3).mean == 0.3
    assert point_mass(0.7).mean == 0.7
    assert beta_arm(2.0, 5.0).mean == pytest.approx(2.0 / 7.0)
    with pytest.raises(ValueError):
        bernoulli(1.2)
    with pytest.raises(ValueError):
        beta_arm(0.0, 1.0)
    with pytest.raises(ValueError):
        point_mass(-0.1)


def test_make_custom():
    inst = make_custom([0.9, 0.5])
    assert inst.gaps == (0.0, pytest.approx(0.4))
    assert inst.best == 0
    degenerate = make_custom([0.5, 0.5])
    assert degenerate.delta_min is None
    single = make_custom([0.2])
    assert single.n_arms == 1 and single.delta_min is None
    with pytest.raises(ValueError):
        make_custom([])
    with pytest.raises(ValueError):
        make_custom([0.5, 1.4])


def test_make_linear_gaps():
    inst = make_linear_gaps(4)
    assert inst.means == (1.0, 0.75, 0.5, 0.25)
    assert inst.delta_min == pytest.approx(0.25)
    assert make_linear_gaps(2).delta_min == pytest.approx(0.5)
    assert make_linear_gaps(16).delta_min == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        make_linear_gaps(1)
    with pytest.raises(ValueError):
        make_linear_gaps(4, best_mean=0.5)  # ladder leaves [0, 1]


def test_make_two_group_layout():
    inst = make_two_group(4, s=0.5, low_gap=0.1, high_gap=0.5, best_mean=0.9)
    assert inst.means == (0.9, pytest.approx(0.8), pytest.approx(0.4), pytest.approx(0.4))
    assert inst.delta_min == pytest.approx(0.1)


def test_two_group_regimes():
    make_two_group(16, s=0.75, low_gap=0.02, high_gap=0.5, regime="ex1")
    with pytest.raises(ValueError):
        make_two_group(16, s=0.25, low_gap=0.02, high_gap=0.5, regime="ex1")  # minority
    make_two_group(50, s=0.08, low_gap=0.05, high_gap=0.5, regime="ex2")
    with pytest.raises(ValueError):
        make_two_group(50, s=0.4, low_gap=0.05, high_gap=0.5, regime="ex2")  # ratio test fails
    with pytest.raises(ValueError):
        make_two_group(8, s=0.5, low_gap=0.1, high_gap=0.5, regime="ex9")


def test_two_group_validation():
    with pytest.raises(ValueError):
        make_two_group(2, s=0.5, low_gap=0.1, high_gap=0.5)
    with pytest.raises(ValueError):
        make_two_group(8, s=0.5, low_gap=0.5, high_gap=0.1)
    with pytest.raises(ValueError):
        make_two_group(8, s=0.5, low_gap=0.1, high_gap=0.95)  # means leave [0, 1]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
def test_gap_invariants_match_brute_force(means):
    inst = make_custom(means)
    top = max(means)
    assert inst.gaps[inst.best] == 0.0
    assert all(g >= 0.0 for g in inst.gaps)
    positive = [top - m for m in means if top - m > 0.0]
    assert inst.delta_min == (min(positive) if positive else None)


def test_point_mass_and_extreme_bernoulli_draws():
    inst = BanditInstance((point_mass(0.7), bernoulli(1.0), bernoulli(0.0)), "x")
    stream = RewardStream(inst, 5)
    assert all(stream.draw(0) == 0.7 for _ in range(20))
    assert all(stream.draw(1) == 1.0 for _ in range(20))
    assert all(stream.draw(2) == 0.0 for _ in range(20))
    with pytest.raises(IndexError):
        stream.draw(3)


def test_streams_reproducible_and_seed_sensitive():
    inst = make_custom([0.5, 0.5])
    a = RewardStream(inst, 123)
    b = RewardStream(inst, 123)
    assert [a.draw(0) for _ in range(200)] == [b.draw(0) for _ in range(200)]
    c = RewardStream(inst, 124)
    assert [a.draw(1) for _ in range(100)] != [c.draw(1) for _ in range(100)]


def test_streams_indexed_by_arm_and_pull_count():
    # interleaving draws across arms must not perturb any arm's own stream
    inst = make_custom([0.4, 0.6, 0.8])
    solo = RewardStream(inst, 9)
    expected = [solo.draw(1) for _ in range(300)]
    mixed = RewardStream(inst, 9)
    got = []
    for i in range(300):
        mixed.draw(0)
        got.append(mixed.draw(1))
        mixed.draw(2)
        mixed.draw(0)
    assert got == expected


def test_golden_stream_values():
    # pins the PRNG construction (PCG64 per arm via spawn_key) across versions
    inst = make_custom([0.5, 0.3])
    stream = RewardStream(inst, 42)
    assert [stream.draw(0) for _ in range(8)] == [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    assert [stream.draw(1) for _ in range(8)] == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    beta_inst = BanditInstance((beta_arm(2.0, 5.0),), "b")
    beta_stream = RewardStream(beta_inst, 42)
    first = [beta_stream.draw(0) for _ in range(3)]
    assert first == pytest.approx([0.324051827664, 0.650658430062, 0.558398397551], abs=1e-11)


@pytest.mark.parametrize("arm", [bernoulli(0.3), beta_arm(2.0, 5.0)], ids=["bernoulli", "beta"])
@pytest.mark.parametrize("drawn_before", [0, 3])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000, _CHUNK - 4, _CHUNK - 3, _CHUNK + 1, 3 * _CHUNK])
def test_skip_leaves_stream_where_draws_would(arm, drawn_before, n):
    # skip moves the pull index, possibly past the arm's chunk; the next
    # draw must still be the one a fresh stream yields after as many draws
    inst = BanditInstance((arm,), "x")
    expected = RewardStream(inst, 7)
    values = [expected.draw(0) for _ in range(drawn_before + n + 2)]
    stream = RewardStream(inst, 7)
    assert [stream.draw(0) for _ in range(drawn_before)] == values[:drawn_before]
    stream.skip(0, n)
    assert [stream.draw(0), stream.draw(0)] == values[drawn_before + n :]


@pytest.mark.parametrize("arm", [bernoulli(0.3), beta_arm(2.0, 5.0)], ids=["bernoulli", "beta"])
def test_long_skip_leaves_stream_where_draws_would(arm):
    # a skip over 2000 whole chunks: a bernoulli arm's generator advances
    # over them in one jump, a beta arm's generates each of them
    n = _CHUNK * 2000 + 17
    inst = BanditInstance((arm,), "x")
    stepped = RewardStream(inst, 11)
    for _ in range(n):
        stepped.draw(0)
    stream = RewardStream(inst, 11)
    stream.draw(0)
    stream.skip(0, n - 1)
    assert [stream.draw(0) for _ in range(300)] == [stepped.draw(0) for _ in range(300)]


_MIXED = BanditInstance((bernoulli(0.5), beta_arm(2.0, 5.0), point_mass(0.3)), "mix")
# (arm, action, amount): draw `amount` rewards; skip `amount` pulls (none,
# within a chunk or across several); or skip to the (amount mod 4)-th chunk
# edge ahead of the arm's pull index, which is the index itself when it
# sits on an edge and that is 0.
_STREAM_OPS = st.lists(
    st.tuples(
        st.integers(0, _MIXED.n_arms - 1),
        st.sampled_from(["draw", "skip", "edge"]),
        st.one_of(st.integers(0, 3), st.integers(1, _CHUNK - 1), st.integers(_CHUNK, 2 * _CHUNK + 100)),
    ),
    max_size=12,
)


@given(ops=_STREAM_OPS, seed=st.integers(0, 2**16))
@example(
    ops=[
        (0, "skip", 0), (0, "draw", 5), (0, "edge", 0), (0, "draw", 1), (0, "skip", 255),
        (1, "draw", 300), (1, "skip", 100), (1, "edge", 2), (1, "draw", 2),
        (2, "skip", 700), (2, "draw", 3), (2, "edge", 0), (2, "edge", 1), (2, "draw", 257),
    ],
    seed=5,
)
def test_interleaved_draw_and_skip_match_a_drawing_stream(ops, seed):
    # Each skipped pull is one draw of the reference stream, so every drawn
    # reward, and the next of every arm at the end, must agree.
    stream, drawing = RewardStream(_MIXED, seed), RewardStream(_MIXED, seed)
    pulls = [0] * _MIXED.n_arms
    for arm, action, amount in ops:
        n = -pulls[arm] % _CHUNK + _CHUNK * (amount % 4) if action == "edge" else amount
        if action == "draw":
            assert [stream.draw(arm) for _ in range(n)] == [drawing.draw(arm) for _ in range(n)]
        else:
            stream.skip(arm, n)
            for _ in range(n):
                drawing.draw(arm)
        pulls[arm] += n
    arms = range(_MIXED.n_arms)
    assert [stream.draw(arm) for arm in arms] == [drawing.draw(arm) for arm in arms]
    for bad in (-1, _MIXED.n_arms):
        with pytest.raises(IndexError):
            stream.draw(bad)
        with pytest.raises(IndexError):
            stream.skip(bad, 1)


def test_huge_bernoulli_skip_matches_advanced_generator():
    # 10**12 chunks could never be generated one by one; the draws after
    # the skip are those of an independently built and advanced PCG64
    p, seed, chunks = 0.5, 3, 10**12
    stream = RewardStream(make_custom([0.9, p]), seed)
    stream.skip(1, _CHUNK * chunks + 5)
    got = [stream.draw(1) for _ in range(300)]
    bit_generator = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    bit_generator.advance(_CHUNK * chunks)
    uniform = np.random.Generator(bit_generator).random(512)
    assert got == (uniform[5:305] < p).astype(np.float64).tolist()


def test_skip_on_point_arm_and_bad_count():
    inst = BanditInstance((point_mass(0.7), bernoulli(0.5)), "x")
    stream = RewardStream(inst, 5)
    stream.skip(0, 1000)
    assert stream.draw(0) == 0.7
    assert 0 not in stream._gens  # a point arm's chunk needs no generator
    stream.skip(0, 300)
    assert [stream.draw(0) for _ in range(300)] == [0.7] * 300
    with pytest.raises(ValueError):
        stream.skip(1, -1)


def test_draw_returns_python_float():
    inst = BanditInstance((bernoulli(0.5), beta_arm(2.0, 5.0), point_mass(0.3)), "mix")
    stream = RewardStream(inst, 3)
    for arm in range(inst.n_arms):
        assert all(type(stream.draw(arm)) is float for _ in range(300)), arm


def test_bad_arm_raises_before_and_after_buffering():
    # The range check sits on the refill path; an arm that was never
    # buffered must reach it however many draws the valid arms have made.
    # A negative arm would index a real arm's slot from the end of the
    # list, or fall off it, and must never read that arm's rewards.
    inst = BanditInstance((bernoulli(0.5), beta_arm(2.0, 5.0), point_mass(0.3)), "mix")
    K = inst.n_arms
    bad_arms = (-1, -K, -K - 1, -2 * K, -2 * K - 1, K, 2 * K - 1, 2 * K)
    stream = RewardStream(inst, 3)
    for bad in bad_arms:
        with pytest.raises(IndexError, match=f"arm {bad} out of range"):
            stream.draw(bad)
        with pytest.raises(IndexError, match=f"arm {bad} out of range"):
            stream.skip(bad, 2)
    for arm in range(K):
        for _ in range(5):
            stream.draw(arm)
    for bad in bad_arms:
        with pytest.raises(IndexError, match=f"arm {bad} out of range"):
            stream.draw(bad)
        with pytest.raises(IndexError, match=f"arm {bad} out of range"):
            stream.skip(bad, 2)
    # the bad arms moved no stream: each slot holds the rest of its chunk
    assert [length_hint(it) for it in stream._iters] == [_CHUNK - 5] * K
    assert sorted(stream._gens) == [0, 1]  # the point arm buffers its mass, with no generator
    stream.skip(2, 1000)
    assert stream.draw(2) == 0.3


# (action, n) over one arm's pulls: draws across the chunk edges at
# _CHUNK, 2 * _CHUNK and 5 * _CHUNK, skips that land just short of an edge,
# past two edges, and exactly on 6 * _CHUNK, then draws from there.
_EDGE_PLAN = (
    ("draw", _CHUNK - 3), ("draw", 6), ("skip", _CHUNK - 6), ("draw", 4),
    ("skip", 2 * _CHUNK + 5), ("draw", _CHUNK), ("skip", _CHUNK - 6), ("draw", 3),
)


@pytest.mark.parametrize(
    "arm",
    [
        bernoulli(0.3), bernoulli(0.0), bernoulli(1.0),
        beta_arm(2.0, 3.0), beta_arm(0.5, 0.7), beta_arm(0.3, 5.0), beta_arm(1.0, 1.0),
    ],
    ids=["bernoulli", "bernoulli(0)", "bernoulli(1)", "beta(2,3)", "beta(.5,.7)", "beta(.3,5)", "beta(1,1)"],
)
def test_draws_and_skips_across_chunk_edges_match_numpy(arm):
    # The oracle calls numpy directly on the arm's substream, all at once,
    # so a draw dropped or repeated at any chunk edge shifts what follows.
    seed, index = 19, 1
    inst = BanditInstance((point_mass(0.5), arm), "edges")
    total = sum(n for _, n in _EDGE_PLAN)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))
    if arm.kind == "bernoulli":
        oracle = (gen.random(total) < arm.a).astype(np.float64).tolist()
    else:
        oracle = gen.beta(arm.a, arm.b, size=total).tolist()
    stream = RewardStream(inst, seed)
    pull = 0
    for action, n in _EDGE_PLAN:
        if action == "draw":
            assert [stream.draw(index) for _ in range(n)] == oracle[pull : pull + n], pull
        else:
            stream.skip(index, n)
        pull += n


def test_bernoulli_chunks_share_their_reward_objects():
    # A chunk holds references to two shared floats, so a many-arms stream
    # holds about one list of pointers per drawn arm (about 8 KB), not 1024
    # float objects besides (about 32 KB in all).
    inst = make_linear_gaps(256)
    RewardStream(inst, 1).draw(0)  # load numpy.random before tracing
    tracemalloc.start()
    try:
        stream = RewardStream(inst, 7)
        for arm in range(inst.n_arms):
            stream.draw(arm)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3_000_000, held


# Pull index -> reward for seed 42, recorded from the numpy-array buffer of
# 256-draw chunks that preceded the list-backed one. The indices straddle
# that buffer's chunk edges and the 1024-draw chunks' first edge, so they
# also pin that the chunk size does not change the stream.
_GOLDEN_PULLS = (0, 1, 254, 255, 256, 257, 511, 512, 513, 767, 768, 1023, 1024, 1099)
_GOLDEN_BERNOULLI = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_GOLDEN_BETA = (
    0.6241412795920543, 0.3680437528773263, 0.5456408022731981, 0.4283599066362619,
    0.23756955181322187, 0.20088240595991647, 0.5027820816074178, 0.3216410445262349,
    0.5132145942473596, 0.1947376318010629, 0.5970996192016795, 0.32155001657235477,
    0.4489571879339933, 0.2296072573625737,
)


def test_interleaved_skip_and_draw_match_golden_values():
    inst = BanditInstance((bernoulli(0.5), beta_arm(2.0, 5.0)), "golden")
    stream = RewardStream(inst, 42)
    bern, beta = [], []
    done = 0
    for pull in _GOLDEN_PULLS:
        stream.skip(0, pull - done)
        bern.append(stream.draw(0))
        stream.skip(1, pull - done)
        beta.append(stream.draw(1))
        done = pull + 1
    assert tuple(bern) == _GOLDEN_BERNOULLI
    assert beta == pytest.approx(_GOLDEN_BETA, abs=1e-12)


def test_empirical_means_match_declared_means():
    inst = BanditInstance((bernoulli(0.5), beta_arm(2.0, 5.0), point_mass(0.3)), "mix")
    stream = RewardStream(inst, 77)
    n = 10**5
    tol = 5.0 * math.sqrt(0.25 / n)
    for arm in range(inst.n_arms):
        mean = sum(stream.draw(arm) for _ in range(n)) / n
        assert abs(mean - inst.means[arm]) < tol


def test_bernoulli_long_run_mean():
    inst = make_custom([0.3])
    stream = RewardStream(inst, 2024)
    n = 10**6
    mean = sum(stream.draw(0) for _ in range(n)) / n
    assert abs(mean - 0.3) < 0.002  # ~3 sigma for a binomial proportion


def test_build_preset_dispatch():
    assert build_preset({"name": "linear", "K": "4"}).label == "linear(K=4)"
    assert build_preset([("name", "custom"), ("means", "0.9, 0.6")]).n_arms == 2
    assert build_preset({"name": "two_group"}).n_arms == 8
    assert build_preset({"name": "two_group_ex1"}).delta_min == pytest.approx(0.02)
    assert build_preset({"name": "two_group_ex2"}).n_arms == 50
    with pytest.raises(ValueError, match="requires 'means'"):
        build_preset({"name": "custom"})
    with pytest.raises(ValueError, match="unknown preset 'mystery'"):
        build_preset({"name": "mystery"})
    with pytest.raises(ValueError, match="unknown preset ''"):
        build_preset({"K": "4"})  # name missing
    with pytest.raises(ValueError, match="unknown key 'wings'"):
        build_preset({"name": "linear", "K": "4", "wings": "2"})
    with pytest.raises(ValueError, match="^K: invalid literal"):
        build_preset({"name": "linear", "K": "4.0"})
