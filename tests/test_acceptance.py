"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Heavy suites are shared
through module-scoped fixtures. Criteria 5 and 6 assert the stated desk-scale
envelopes literally; see the repository notes for their measured behavior.
"""

import math
import time
from statistics import fmean

import pytest

import constbandit.cli as cli
from constbandit import (
    ADAPTIVE_RATIO,
    GEOMETRIC,
    PolicyConfig,
    check_lemma_assertions,
    make_custom,
    make_linear_gaps,
    memory_audit,
    polylog,
    polylog_rounds_bound,
    pseudo_regret,
    rounds_to_precision,
    run_episode,
)

GEO = PolicyConfig("constspace")
POLY = PolicyConfig("constspace", polylog(0.5))
ADAPTIVE = PolicyConfig("constspace", ADAPTIVE_RATIO)
DOUBLING = PolicyConfig("doubling")
UCB1 = PolicyConfig("ucb1")


@pytest.fixture(scope="module")
def lemma_suite():
    """100 seeded episodes on custom {0.9, 0.8, 0.5, 0.3} at T = 1e5."""
    instance = make_custom([0.9, 0.8, 0.5, 0.3])
    traces = [
        run_episode(GEO, instance, 10**5, seed, action_log=False) for seed in range(100)
    ]
    return instance, traces


def test_acceptance_1_constant_space_audit():
    start = time.time()
    grid = [2, 10, 100, 1000, 100000]
    rows = memory_audit([GEO, POLY, ADAPTIVE, DOUBLING, UCB1], grid)
    by_policy = {}
    for row in rows:
        by_policy.setdefault((row.policy, row.schedule), []).append(row)
    for (policy, schedule), policy_rows in by_policy.items():
        if policy == "ucb1":
            continue
        words = {r.words_at_reset for r in policy_rows} | {r.words_peak for r in policy_rows}
        assert len(words) == 1, f"{policy} ({schedule}) varies with K: {sorted(words)}"
    ucb_rows = sorted(by_policy[("ucb1", "-")], key=lambda r: r.n_arms)
    for a, b in zip(ucb_rows, ucb_rows[1:]):
        slope = (b.words_at_reset - a.words_at_reset) / (b.n_arms - a.n_arms)
        assert slope >= 2.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: constant-space audit over K={grid} in {elapsed:.1f}s")


def test_acceptance_2_schedule_round_caps():
    start = time.time()
    for g0 in (0.5, 1.0):
        for exponent in range(4, 25):
            target = 2.0**-exponent
            geometric_count = rounds_to_precision(g0, target, GEOMETRIC)
            assert geometric_count == math.ceil(math.log2(g0 / target))
            for eps in (0.25, 0.5, 1.0):
                count = rounds_to_precision(g0, target, polylog(eps))
                log_ratio = math.log2(g0 / target)
                cap = (2.0 / eps + 1.0) * (log_ratio / math.log2(log_ratio)) + 2.0
                assert count <= cap
                assert count <= polylog_rounds_bound(g0, target, eps)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: schedule round caps verified in {elapsed * 1000:.0f}ms")


def test_acceptance_3_conditional_lemma_suite(lemma_suite):
    start = time.time()
    instance, traces = lemma_suite
    clean = sum(1 for tr in traces if tr.clean_event)
    assert clean >= 99, f"clean event in only {clean}/100 runs"
    r_cap = math.ceil(math.log2(2.0 / 0.1))
    assert r_cap == 5
    for trace in traces:
        if not trace.clean_event:
            continue
        report = check_lemma_assertions(trace, instance, GEO)
        assert report.all_pass, [f"{c.name}: {c.detail}" for c in report.failures]
        assert trace.r_max_observed <= r_cap
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 PASS: {clean}/100 clean runs, all conditional checks hold")


def test_acceptance_4_correct_commitment(lemma_suite):
    instance, traces = lemma_suite
    committed = sum(1 for tr in traces if tr.committed_arm == instance.best)
    assert committed >= 99, f"committed to the best arm in only {committed}/100 runs"
    print(f"ACCEPTANCE 4 PASS: committed to arm 0 in {committed}/100 runs")


def test_acceptance_5_log_horizon_scaling():
    start = time.time()
    instance = make_custom([0.9, 0.6])
    horizons = [10**3, 10**4, 10**5, 10**6]
    ratios = {}
    for horizon in horizons:
        regrets = [
            pseudo_regret(run_episode(GEO, instance, horizon, seed, action_log=False), instance)
            for seed in range(50)
        ]
        ratios[horizon] = fmean(regrets) / math.log(horizon)
    bound_shape = {T: 50.0 * (1.0 / 0.3) * math.log(T) for T in horizons}
    for T in horizons:
        print(
            f"  T={T}: regret/lnT = {ratios[T]:.2f}"
            f" (bound shape {bound_shape[T] / math.log(T):.1f})"
        )
    band = max(ratios.values()) / min(ratios.values())
    elapsed = time.time() - start
    assert elapsed < 300.0
    assert band <= 3.0, (
        f"regret/lnT band across the horizon grid is {band:.2f} (> 3): "
        f"ratios {[round(ratios[T], 2) for T in horizons]}"
    )
    print(f"ACCEPTANCE 5 PASS: regret/lnT band {band:.2f} <= 3 in {elapsed:.0f}s")


def test_acceptance_6_competitive_ratio():
    start = time.time()
    instance = make_linear_gaps(16)
    assert math.ceil(math.log2(2.0 / instance.delta_min)) == 5  # stated cap is 6
    means = {}
    for name, cfg in (("geometric", GEO), ("polylog", POLY), ("ucb1", UCB1)):
        regrets = [
            pseudo_regret(run_episode(cfg, instance, 10**5, seed, action_log=False), instance)
            for seed in range(50)
        ]
        means[name] = fmean(regrets)
    geo_ratio = means["geometric"] / means["ucb1"]
    poly_ratio = means["polylog"] / means["ucb1"]
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"  mean regrets: geometric {means['geometric']:.0f}, polylog {means['polylog']:.0f},"
        f" ucb1 {means['ucb1']:.0f}; ratios {geo_ratio:.2f} / {poly_ratio:.2f}"
    )
    assert poly_ratio <= geo_ratio * 1.10, (
        f"polylog ratio {poly_ratio:.2f} exceeds geometric ratio {geo_ratio:.2f} + 10%"
    )
    assert geo_ratio <= 6.0, f"competitive ratio {geo_ratio:.2f} exceeds the stated cap 6"
    print(f"ACCEPTANCE 6 PASS: ratios {geo_ratio:.2f} <= 6 and polylog within 10% in {elapsed:.0f}s")


def test_acceptance_7_doubling_wrapper():
    start = time.time()
    instance = make_custom([0.9, 0.6])
    horizon = 10**4
    probe = run_episode(DOUBLING, instance, horizon, 0, action_log=False)
    assert probe.level_log == [(0, 10, 10), (1, 100, 100), (2, 10**4, 9890)]
    assert probe.steps == horizon == sum(probe.pull_counts)
    doubling = [
        pseudo_regret(run_episode(DOUBLING, instance, horizon, seed, action_log=False), instance)
        for seed in range(50)
    ]
    known = [
        pseudo_regret(run_episode(GEO, instance, horizon, seed, action_log=False), instance)
        for seed in range(50)
    ]
    ratio = fmean(doubling) / fmean(known)
    elapsed = time.time() - start
    assert elapsed < 120.0
    assert ratio <= 4.0, f"doubling overhead factor {ratio:.2f} exceeds 4"
    print(f"ACCEPTANCE 7 PASS: level schedule exact, overhead factor {ratio:.2f} <= 4")


def test_acceptance_8_pseudo_regret_oracle():
    configs = [
        (GEO, make_custom([0.9, 0.6]), 2000),
        (GEO, make_custom([0.9, 0.8, 0.5, 0.3]), 5000),
        (POLY, make_linear_gaps(8), 4000),
        (DOUBLING, make_custom([0.9, 0.6]), 1500),
        (UCB1, make_custom([0.7, 0.4, 0.1]), 3000),
    ]
    checked = 0
    for cfg, instance, horizon in configs:
        for seed in range(4):
            trace = run_episode(cfg, instance, horizon, seed, action_log=True)
            value = pseudo_regret(trace, instance)
            # independent recomputation: recount pulls from the raw action log
            # and rebuild gaps from the arm means
            counts = [0] * instance.n_arms
            for arm in trace.action_log:
                counts[arm] += 1
            top = max(instance.means)
            oracle = math.fsum(
                counts[j] * (top - instance.means[j]) for j in range(instance.n_arms)
            )
            assert abs(value - oracle) <= math.ulp(max(value, oracle, 1.0))
            checked += 1
    assert checked == 20
    print(f"ACCEPTANCE 8 PASS: {checked} golden traces match the brute-force recomputation")


def test_acceptance_9_csv_determinism(tmp_path):
    args = [
        "run",
        "--policy", "constspace,constspace-polylog(0.5),ucb1",
        "--instance", "custom(means=0.9|0.7|0.4)",
        "--T", "1000,2000",
        "--seeds", "5",
        "--base-seed", "17",
        "--format", "csv",
    ]
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert cli.main(args + ["--jobs", "1", "--out", str(out_serial)]) == 0
    assert cli.main(args + ["--jobs", "8", "--out", str(out_parallel)]) == 0
    serial_bytes = (out_serial / "results.csv").read_bytes()
    parallel_bytes = (out_parallel / "results.csv").read_bytes()
    assert serial_bytes == parallel_bytes
    print(f"ACCEPTANCE 9 PASS: byte-identical CSV across --jobs 1 and --jobs 8")
