import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import constbandit.cli as cli
import constbandit.envs as envs
import constbandit.simulator as simulator
from constbandit import ADAPTIVE_RATIO, GEOMETRIC, PolicyConfig, Rule, polylog, rmax_bound
from constbandit.simulator import LemmaCheck, LemmaReport


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


_BAD_SPECS = (
    "constspace-fancy",
    "ucb1-geometric",
    "ucb1@0.1",
    "doubling@0.1",
    "constspace@0",
    "constspace@1",
    "constspace@nan",
    "constspace@-0.5",
    "constspace@abc",
    "constspace@",
    "constspace-@0.1",
)


def test_parse_policy_specs(tmp_path, capsys):
    assert cli.parse_policy_spec("ucb1") == PolicyConfig("ucb1")
    assert cli.parse_policy_spec("constspace") == PolicyConfig("constspace")
    assert cli.parse_policy_spec("constspace-geometric").schedule == GEOMETRIC
    assert cli.parse_policy_spec("constspace-polylog(0.25)").schedule == polylog(0.25)
    assert cli.parse_policy_spec("constspace-polylog").schedule == polylog(0.5)
    assert cli.parse_policy_spec("doubling-adaptive").schedule.kind == "adaptive"
    assert cli.parse_policy_spec("constspace@1e-07") == PolicyConfig("constspace", rule=Rule(1e-07))
    assert cli.parse_policy_spec("constspace-polylog(0.5)@0.01") == PolicyConfig(
        "constspace", polylog(0.5), Rule(0.01)
    )
    out = tmp_path / "out"
    for spec in _BAD_SPECS:
        with pytest.raises(cli.ConfigError, match="^policy.names: "):
            cli.parse_policy_spec(spec)
        for command in ("run", "verify"):
            extra = ["--out", str(out)] if command == "run" else []
            assert cli.main([command, "--policy", spec, "--T", "100", "--seeds", "1", *extra]) == 2
            assert "config error: policy.names: " in capsys.readouterr().err
            assert not out.exists()


def _spec_policies():
    """Every valid config of the grid; a delta on doubling or ucb1, or a
    schedule on ucb1, is rejected and skipped."""
    for case in product(
        ("constspace", "doubling", "ucb1"),
        (GEOMETRIC, ADAPTIVE_RATIO, polylog(0.5), polylog(0.123456789), polylog(1 / 3)),
        (Rule(), Rule(0.4), Rule(1e-07), Rule(0.1 + 0.2), Rule(5e-300)),
    ):
        try:
            yield PolicyConfig(*case)
        except ValueError:
            continue


@given(st.lists(st.sampled_from(list(_spec_policies())), min_size=1, max_size=4))
@example([PolicyConfig("constspace", rule=Rule(0.01)), PolicyConfig("constspace"), PolicyConfig("doubling")])
def test_policy_spec_round_trip(policies):
    for cfg in policies:
        assert PolicyConfig.parse(cfg.label()) == cfg
    exp = cli.ExperimentConfig(policies=policies, horizons=[100])
    assert cli.config_from_ini(cli.config_to_ini(exp)) == exp


def test_readme_ini_example_names_round_trip():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = cli.config_from_ini(block)
    names = re.search(r"^names = (.*)$", block, re.M).group(1)
    assert [p.label() for p in cfg.policies] == [name.strip() for name in names.split(",")]
    assert any(p.rule != Rule() for p in cfg.policies)


def _spec_instance(spec):
    return cli.build_instance(cli.ExperimentConfig(instance=cli.parse_instance_spec(spec)))


def test_parse_instance_specs():
    assert cli.parse_instance_spec("linear(K=16)") == {"name": "linear", "K": "16"}
    assert _spec_instance("linear(K=16)") == envs.make_linear_gaps(16)
    assert cli.parse_instance_spec("custom(means=0.9|0.6,kind=point)") == {
        "name": "custom", "means": "0.9|0.6", "kind": "point"
    }
    assert _spec_instance("custom(means=0.9|0.6,kind=point)") == envs.make_custom([0.9, 0.6], kind="point")
    two_group = _spec_instance("two_group(K=8,s=0.5,low_gap=0.1,high_gap=0.5)")
    assert two_group == envs.make_two_group(8, 0.5, 0.1, 0.5)
    for spec in ("mystery(K=2)", "linear(frobs=2)", "linear(name=custom)", "linear(K)", "linear(K=16"):
        with pytest.raises(cli.ConfigError, match="^instance: "):
            _spec_instance(spec)


def test_config_ini_round_trip():
    cfg = cli.ExperimentConfig(
        policies=[PolicyConfig("constspace", polylog(0.5)), PolicyConfig("ucb1")],
        instance={"name": "two_group", "K": "8", "s": "0.5", "low_gap": "0.1", "high_gap": "0.5"},
        horizons=[1000, 5000],
        n_seeds=7,
        base_seed=3,
        jobs=2,
        out_dir="results",
        fmt="csv",
    )
    text = cli.config_to_ini(cfg)
    assert cli.config_from_ini(text) == cfg
    means_cfg = cli.ExperimentConfig(
        policies=[PolicyConfig("constspace", rule=Rule(1e-7))],
        instance={"name": "custom", "means": "0.9, 0.6"},
        horizons=[100],
    )
    assert cli.config_from_ini(cli.config_to_ini(means_cfg)) == means_cfg
    odd_eps_cfg = cli.ExperimentConfig(
        policies=[
            PolicyConfig("constspace", polylog(0.123456789)),
            PolicyConfig("doubling", polylog(1 / 3)),
        ],
        horizons=[100],
    )
    assert cli.config_from_ini(cli.config_to_ini(odd_eps_cfg)) == odd_eps_cfg
    delta_beside_cfg = cli.ExperimentConfig(  # a delta on constspace beside policies without one
        policies=[
            PolicyConfig("constspace", rule=Rule(0.01)),
            PolicyConfig("doubling"),
            PolicyConfig("ucb1"),
        ],
        horizons=[100],
    )
    assert cli.config_from_ini(cli.config_to_ini(delta_beside_cfg)) == delta_beside_cfg


# Values for each preset's keys, all valid together; a key left out takes its default.
_PRESET_VALUES = {
    "custom": {"means": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
               "kind": st.sampled_from(["bernoulli", "point"])},
    "linear": {"K": st.integers(2, 64), "best_mean": st.floats(0.985, 1.0)},
    "two_group": {"K": st.sampled_from([8, 10]), "s": st.just(0.5), "low_gap": st.sampled_from([0.1, 0.2]),
                  "high_gap": st.sampled_from([0.5, 0.6]), "best_mean": st.sampled_from([0.9, 0.95])},
    "two_group_ex1": {"K": st.sampled_from([16, 20]), "s": st.sampled_from([0.75, 0.8]),
                      "low_gap": st.sampled_from([0.02, 0.04]), "high_gap": st.just(0.5),
                      "best_mean": st.sampled_from([0.9, 1.0])},
    "two_group_ex2": {"K": st.sampled_from([50, 100]), "s": st.just(0.08), "low_gap": st.just(0.05),
                      "high_gap": st.just(0.5), "best_mean": st.just(0.9)},
}


@st.composite
def _preset_params(draw):
    name = draw(st.sampled_from(sorted(_PRESET_VALUES)))
    values = _PRESET_VALUES[name]
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    if name == "custom" and "means" not in keys:
        keys.append("means")  # the one required key
    return name, {key: draw(values[key]) for key in keys}


@given(_preset_params())
@example(("linear", {}))
@example(("custom", {"means": [0.9, 0.6], "kind": "point"}))
@example(("custom", {"means": [5e-324, 0.0]}))  # loads; run, verify and bounds reject it later
def test_instance_spec_and_section_build_the_same_instance(preset):
    name, params = preset

    def text(value, sep):
        return sep.join(repr(m) for m in value) if isinstance(value, list) else str(value)

    args = ",".join(f"{key}={text(value, '|')}" for key, value in params.items())
    spec = f"{name}({args})" if params else name
    argv = ["run", "--instance", spec, "--out", "unused"]
    from_spec = cli.resolve_config(cli.build_parser().parse_args(argv))
    section = "".join(f"{key} = {text(value, ', ')}\n" for key, value in params.items())
    from_ini = cli.config_from_ini(f"[instance]\nname = {name}\n{section}")
    assert cli.build_instance(from_spec) == cli.build_instance(from_ini)
    for cfg in (from_spec, from_ini):
        assert cli.config_from_ini(cli.config_to_ini(cfg)) == cfg


def test_readme_cli_instance_specs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)
    specs = re.findall(r'--instance "([^"]*)"', block)
    assert len(specs) >= 3
    for spec in specs:
        _spec_instance(spec)


def test_percent_is_literal_in_config_values(tmp_path, capsys):
    out = tmp_path / "x%q"
    assert cli.main(["run", "--T", "100", "--seeds", "1", "--out", str(out)]) == 0
    saved = cli.config_from_ini(json.loads((out / "results.json").read_text())["config"])
    assert saved.out_dir == str(out)
    cfg = cli.config_from_ini("[output]\ndir = results/%(run)s 100%\n")
    assert cfg.out_dir == "results/%(run)s 100%"
    assert cli.config_from_ini(cli.config_to_ini(cfg)) == cfg
    config = tmp_path / "pct.ini"
    config.write_text("[instance]\nname = custom\nmeans = 0.9%, 0.6\n")
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error: instance: means: could not convert string to float: '0.9%'" in err
    assert "Traceback" not in err


def test_run_writes_json_for_delta_beside_other_policies(tmp_path):
    config = tmp_path / "delta.ini"
    config.write_text(
        "[policy]\nnames = constspace@0.01, doubling\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "results.json").read_text()
    reports = cli.reports_from_json(text)
    assert [rep.policy for rep in reports] == ["constspace", "doubling"]
    assert [rep.schedule for rep in reports] == ["geometric@0.01", "geometric"]
    saved = cli.config_from_ini(json.loads(text)["config"])
    assert [p.rule for p in saved.policies] == [Rule(0.01), Rule()]


@pytest.mark.parametrize("names", ["doubling", "ucb1", "doubling, ucb1"])
def test_config_rejects_delta_without_constspace_policy(tmp_path, capsys, names):
    config = tmp_path / "delta.ini"
    config.write_text(
        f"[policy]\nnames = {', '.join(name + '@0.01' for name in names.split(', '))}\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert "policy.names: delta applies to constspace only" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "policy.names: delta applies to constspace only" in capsys.readouterr().err
    assert not out.exists()


def test_policy_flag_replaces_config_policies_with_their_delta(tmp_path, capsys):
    body = "[instance]\nname = custom\nmeans = 0.9, 0.6\n[grid]\nT = 300\nseeds = 1\n"
    config = tmp_path / "delta.ini"
    config.write_text("[policy]\nnames = constspace@0.01\n" + body)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--policy", "constspace", "--out", str(out)]) == 0
    text = (out / "results.json").read_text()
    assert cli.config_from_ini(json.loads(text)["config"]).policies == [PolicyConfig("constspace")]
    assert [rep.schedule for rep in cli.reports_from_json(text)] == ["geometric"]
    capsys.readouterr()
    old_key = tmp_path / "old.ini"  # delta belongs to the spec, so a [policy] delta key is unknown
    old_key.write_text("[policy]\nnames = constspace\ndelta = 0.01\n" + body)
    assert cli.main(["verify", "--config", str(old_key)]) == 2
    assert "config error: policy.delta: unknown key" in capsys.readouterr().err
    out = tmp_path / "old_out"
    assert cli.main(["run", "--config", str(old_key), "--policy", "constspace", "--out", str(out)]) == 2
    assert "config error: policy.delta: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag", ["", " , "])
def test_empty_policy_flag_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "run" else []
    assert cli.main([command, "--policy", flag, "--T", "100", "--seeds", "1", *extra]) == 2
    assert "policy.names: at least one policy is required" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag,message", [("--T", "grid.T: horizons"), ("--instance", "instance: cannot parse")])
def test_empty_horizon_or_instance_flag_exits_2(tmp_path, capsys, command, flag, message):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "run" else []
    assert cli.main([command, flag, "", "--seeds", "1", *extra]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_memaudit_rejects_empty_policy_list(tmp_path, capsys):
    assert cli.main(["memaudit", "--policies", "", "--K", "2", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "policy.names: at least one policy is required" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("delta", ["2", "0", "1", "nan", "-0.5"])
def test_config_rejects_delta_outside_unit_interval(tmp_path, capsys, delta):
    config = tmp_path / "delta.ini"
    config.write_text(
        f"[policy]\nnames = constspace@{delta}\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert "policy.names: delta must lie in (0, 1)" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "policy.names: delta must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_config_rejects_delta_whose_budget_overflows(tmp_path, capsys, command):
    # 1e-310 lies in (0, 1), but 1/delta is inf, so no round budget exists
    config = tmp_path / "delta.ini"
    config.write_text(
        "[policy]\nnames = constspace@1e-310\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    out = tmp_path / "out"
    argv = [command, "--config", str(config)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "policy constspace-geometric@1e-310 at T=300: pull budget overflows" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_config_rejects_horizon_whose_delta_overflows(tmp_path, capsys, command):
    # the default delta 1/T^3 needs T^3 as a float, which overflows past 1e308
    out = tmp_path / "out"
    argv = [command, "--instance", "custom(means=0.9|0.6)", "--T", f"300,{10**110}", "--seeds", "1"]
    argv += ["--out", str(out)] if command == "run" else []
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"policy constspace-geometric at T={10**110}: horizon too large" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_config_rejects_doubling_horizon_whose_deep_level_overflows(tmp_path, capsys, command):
    # the wrapper itself builds only level 0; at T = 10^110 the episode
    # reaches level 7, T_7 = 10^128, whose delta 1/T_7^3 overflows, and the
    # error names that level and its horizon
    out = tmp_path / "out"
    argv = [command, "--policy", "doubling", "--instance", "custom(means=0.9|0.6)"]
    argv += ["--T", str(10**110), "--seeds", "1"]
    argv += ["--out", str(out)] if command == "run" else []
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    expected = f"policy doubling-geometric at T={10**110}: level 7 (T_7 = {10**128}): horizon too large"
    assert expected in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[grid]\nwings = 2\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[instance]\nmeans = 0.5\n")  # name missing
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[instance]\nname = nosuch\n")
    with pytest.raises(cli.ConfigError, match="unknown key 'K' for preset 'custom'"):
        cli.config_from_ini("[instance]\nname = custom\nmeans = 0.5\nK = 3\n")  # at load, not at build


def test_run_minimal_writes_csv_and_json(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--policy", "constspace",
            "--instance", "custom(means=0.9|0.6)",
            "--T", "500",
            "--seeds", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "results.csv")
    assert rows[0] == cli.CSV_COLUMNS
    assert len(rows) == 2  # header + one aggregate row
    row = dict(zip(rows[0], rows[1]))
    assert row["policy"] == "constspace" and row["K"] == "2" and row["T"] == "500"
    assert row["seed_count"] == "2"
    payload = json.loads((out / "results.json").read_text())
    reports = cli.reports_from_json((out / "results.json").read_text())
    assert len(reports) == 1
    assert reports[0].mean_regret == float(row["mean_regret"])
    assert payload["reports"][0]["instance"] == "custom(0.9,0.6)"


def test_json_trajectory_ends_at_the_mean_regret(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--policy", "constspace,doubling,ucb1", "--T", "1000", "--seeds", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    for report in json.loads((out / "results.json").read_text())["reports"]:
        assert report["trajectory_mean"][-1] == [1000, report["mean_regret"]], report["policy"]


def test_readme_csv_header_is_the_written_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (header,) = re.findall(r"^`(policy,schedule,[^`]*)`$", readme, flags=re.MULTILINE)
    assert header.split(",") == cli.CSV_COLUMNS


@pytest.mark.parametrize(
    "argv,text_columns",
    [
        (["run", "--policy", "constspace-polylog(0.5)@0.01,ucb1", "--T", "300", "--seeds", "1"], 3),
        (["memaudit", "--policies", "constspace-polylog(0.123456789),ucb1", "--K", "2,100000"], 2),
        (["run", "--instance", "custom(means=3e-308|0)", "--T", "50", "--seeds", "1"], 3),  # bound 1.30401e+308
    ],
)
def test_table_columns_line_up_with_the_header(tmp_path, capsys, argv, text_columns):
    # text columns share the header's left edge and number columns its right edge;
    # a number is at most as wide as "-999999999.999", the widest .3f cell
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert rule == "-" * len(header) and rows

    def spans(line):
        return [m.span() for m in re.finditer(r"\S+", line)]

    edges = [start if i < text_columns else end for i, (start, end) in enumerate(spans(header))]
    for row in rows:
        cells = spans(row)
        assert len(cells) == len(edges), row
        assert [start if i < text_columns else end for i, (start, end) in enumerate(cells)] == edges, row
        assert all(end - start <= 14 for start, end in cells[text_columns:]), row


def test_json_round_trip_equals_reports(tmp_path):
    from constbandit import make_custom, run_suite

    inst = make_custom([0.9, 0.6])
    reports = run_suite([PolicyConfig("constspace")], [inst], [400], 2)
    text = cli.reports_to_json(reports)
    assert cli.reports_from_json(text) == reports


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_results_json_is_strict_json_and_reads_back(tmp_path, monkeypatch):
    # a ucb1 cell has a NaN bound and round statistics, a failed cell NaN
    # everything; strict JSON has no NaN token, so both are written as null
    run_episode = simulator.run_episode

    def fail_doubling(policy, *args, **kwargs):
        if policy.name == "doubling":
            raise RuntimeError("injected")
        return run_episode(policy, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_episode", fail_doubling)
    out = tmp_path / "out"
    argv = ["run", "--policy", "constspace,doubling,ucb1", "--T", "50", "--seeds", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    text = (out / "results.json").read_text()
    const, failed, ucb1 = json.loads(text, parse_constant=_reject_constant)["reports"]
    assert const["bound_value"] is not None and const["error"] is None
    assert ucb1["bound_value"] is None and ucb1["r_max_mean"] is None and ucb1["error"] is None
    assert failed["mean_regret"] is None and failed["error"] == "RuntimeError: injected"
    cfgs = [PolicyConfig(name) for name in ("constspace", "doubling", "ucb1")]
    reports = simulator.run_suite(cfgs, [envs.make_custom([0.9, 0.6])], [50], 2)
    assert repr(cli.reports_from_json(text)) == repr(reports)  # NaN reads back as NaN
    assert math.isnan(cli.reports_from_json(text)[2].bound_value)


def test_csv_floats_use_17_significant_digits(tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        [
            "run",
            "--policy", "ucb1",
            "--instance", "custom(means=0.9|0.55)",
            "--T", "300",
            "--seeds", "3",
            "--out", str(out),
        ]
    ) == 0
    rows = read_csv(out / "results.csv")
    row = dict(zip(rows[0], rows[1]))
    reports = cli.reports_from_json((out / "results.json").read_text())
    assert float(row["mean_regret"]) == reports[0].mean_regret  # bit-exact re-parse


def test_missing_instance_field_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--instance", "custom", "--out", str(tmp_path)])
    assert code == 2
    assert "means" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--preset", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "preset" in capsys.readouterr().err


def test_bad_flag_exits_2(capsys):
    assert cli.main(["run", "--frobnicate"]) == 2


def test_run_rejects_negative_base_seed(tmp_path, capsys):
    out = tmp_path / "neg"
    code = cli.main(["run", "--T", "100", "--seeds", "1", "--base-seed", "-1", "--out", str(out)])
    assert code == 2
    assert "grid.base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_negative_base_seed(capsys):
    assert cli.main(["verify", "--T", "100", "--seeds", "1", "--base-seed", "-1"]) == 2
    assert "grid.base_seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--out", "x"], ["--jobs", "2"], ["--format", "csv"]])
def test_verify_rejects_run_only_flags(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--T", "100", "--seeds", "1", *flag]) == 2
    assert not (tmp_path / "x").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "[policy]\nnames = constspace\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 1000\nseeds = 2\nbase_seed = 0\n"
        f"[output]\ndir = {tmp_path / 'ini_out'}\nformat = csv\njobs = 1\n"
    )
    assert cli.main(["run", "--config", str(cfg_path), "--T", "250"]) == 0
    rows = read_csv(tmp_path / "ini_out" / "results.csv")
    assert dict(zip(rows[0], rows[1]))["T"] == "250"  # flag wins over the file


def test_verify_passes_on_point_instance(capsys):
    code = cli.main(
        [
            "verify",
            "--policy", "constspace",
            "--instance", "custom(means=0.9|0.45,kind=point)",
            "--T", "3000",
            "--seeds", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "best_arm_full_budget: 2/2 pass" in out
    assert "schedule grid" in out


def test_verify_counts_unclean_episodes_vacuous(tmp_path, capsys):
    # a loose delta leaves some episodes unclean; every check is vacuous on each
    config = tmp_path / "loose.ini"
    config.write_text(
        "[policy]\nnames = constspace@0.2\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.8, 0.5\n"
        "[grid]\nT = 3000, 20000\nseeds = 6\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    episodes, clean = (int(part.split(": ")[1]) for part in lines[0].split(", "))
    assert episodes == 12 and 0 < clean < episodes
    check_lines = lines[1 : 1 + len(simulator.CHECK_NAMES)]
    for name, line in zip(simulator.CHECK_NAMES, check_lines):
        assert line == f"{name}: {clean}/{clean} pass ({episodes - clean} vacuous)"


def test_verify_flags_injected_failure(monkeypatch, capsys):
    failing = LemmaReport(
        clean_event=True,
        checks=(
            LemmaCheck("best_arm_full_budget", True),
            LemmaCheck("round_count_cap", False, detail="round 3: r_max 9 > cap 5"),
        ),
    )
    monkeypatch.setattr(simulator, "check_lemma_assertions", lambda *a, **k: failing)
    code = cli.main(
        [
            "verify",
            "--policy", "constspace",
            "--instance", "custom(means=0.9|0.45,kind=point)",
            "--T", "300",
            "--seeds", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "round_count_cap" in captured.err


@pytest.mark.parametrize(
    "schedule,count,line",
    [
        (polylog(0.5), 19, "polylog(0.5) count 19 against cap 18 at g0=1.0, target=2^-10"),
        (GEOMETRIC, 9, "geometric count 9 against cap 10 at g0=1.0, target=2^-10"),
    ],
    ids=["polylog-over-cap", "geometric-under-cap"],
)
def test_verify_fails_on_a_schedule_grid_cell_off_its_cap(monkeypatch, capsys, schedule, count, line):
    # one grid cell's count patched off its cap: past it for poly-log, short
    # of it for halving, whose count must equal the cap
    real = cli.rounds_to_precision
    cell = (1.0, 2.0**-10, schedule)
    monkeypatch.setattr(cli, "rounds_to_precision", lambda *a: count if a == cell else real(*a))
    code = cli.main(
        [
            "verify",
            "--policy", "constspace",
            "--instance", "custom(means=0.9|0.45,kind=point)",
            "--T", "300",
            "--seeds", "1",
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert line in out
    assert out[-1] == "schedule grid: 126 poly-log cells checked, FAIL"


def test_verify_uses_run_seed_rule(monkeypatch, capsys):
    # ucb1 is cell 0 and is skipped; constspace is cell 1, which ``run``
    # gives seeds 5 + 1 * 2 + k.
    seen = []
    real = simulator.run_episode

    def recording(policy, instance, horizon, seed, **kwargs):
        seen.append((policy.name, seed))
        return real(policy, instance, horizon, seed, **kwargs)

    monkeypatch.setattr(simulator, "run_episode", recording)
    code = cli.main(
        [
            "verify",
            "--policy", "ucb1,constspace",
            "--instance", "custom(means=0.9|0.45,kind=point)",
            "--T", "300",
            "--seeds", "2",
            "--base-seed", "5",
        ]
    )
    assert code == 0
    assert seen == [("constspace", 7), ("constspace", 8)]
    reports = simulator.run_suite(
        [cli.parse_policy_spec("ucb1"), cli.parse_policy_spec("constspace")],
        [cli.envs.make_custom([0.9, 0.45], kind="point")], [300], 2, base_seed=5,
    )
    assert reports[1].seeds == [7, 8]


@pytest.mark.parametrize("output", ["jobs = 0", "format = xml"])
def test_verify_ignores_output_section(tmp_path, capsys, output):
    # verify writes nothing, so an [output] value run would reject is not its concern
    body = (
        "[policy]\nnames = constspace\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.45\n"
        "[grid]\nT = 300\nseeds = 2\nbase_seed = 3\n"
    )
    plain, with_output = tmp_path / "plain.ini", tmp_path / "output.ini"
    plain.write_text(body)
    with_output.write_text(body + f"[output]\n{output}\n")
    assert cli.main(["verify", "--config", str(plain)]) == 0
    expected = capsys.readouterr()
    assert cli.main(["verify", "--config", str(with_output)]) == 0
    assert capsys.readouterr() == expected
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(with_output), "--out", str(out_dir)]) == 2
    assert "output." in capsys.readouterr().err and not out_dir.exists()


def test_output_section_rejects_unknown_keys(tmp_path, capsys):
    # run rejects a misspelt [output] key as it does a [grid] one; verify
    # ignores the whole section
    config = tmp_path / "typo.ini"
    config.write_text(
        "[instance]\nname = custom\nmeans = 0.9, 0.45\n"
        "[grid]\nT = 300\nseeds = 1\n"
        "[output]\njbos = 0\n"
    )
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 2
    assert "output.jbos: unknown key" in capsys.readouterr().err and not out_dir.exists()
    assert cli.main(["verify", "--config", str(config)]) == 0
    with pytest.raises(cli.ConfigError, match="output.jbos"):
        cli.config_from_ini(config.read_text())
    assert cli.config_from_ini(config.read_text(), output=False).jobs == 1


@pytest.mark.parametrize("section", ["gird", "Grid", "DEFAULT", "outptu"])
def test_config_rejects_unknown_sections(tmp_path, capsys, section):
    # a misspelt section would drop its keys unread, and [DEFAULT] would
    # hand its keys to every section
    config = tmp_path / "typo.ini"
    config.write_text(f"[instance]\nname = custom\nmeans = 0.9, 0.45\n[{section}]\nT = 100\nseeds = 1\n")
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 2
    assert f"config error: {section}: unknown section" in capsys.readouterr().err
    assert not out_dir.exists()
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert f"config error: {section}: unknown section" in capsys.readouterr().err
    assert cli.config_from_ini("[DEFAULT]\n[grid]\nT = 100\n").horizons == [100]  # no keys, no harm


def test_verify_rejects_ucb1_only(capsys):
    code = cli.main(["verify", "--policy", "ucb1", "--T", "300", "--seeds", "1"])
    assert code == 2


def test_memaudit_constant_rows(tmp_path, capsys):
    code = cli.main(["memaudit", "--K", "2,10,100", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(tmp_path / "memaudit.csv")
    assert rows[0] == ["policy", "schedule", "K", "words_at_reset", "words_peak"]
    const_rows = [r for r in rows[1:] if r[0] == "constspace"]
    assert {r[3] for r in const_rows} == {"20"}
    assert "ucb1" in out


def test_memaudit_fails_a_round_based_policy_whose_words_vary(monkeypatch, capsys):
    rows = [
        simulator.MemoryAuditRow("constspace", "geometric", 2, 20, 20),
        simulator.MemoryAuditRow("constspace", "geometric", 10, 20, 21),
        simulator.MemoryAuditRow("ucb1", "-", 2, 10, 10),
        simulator.MemoryAuditRow("ucb1", "-", 10, 26, 26),
    ]
    monkeypatch.setattr(simulator, "memory_audit", lambda policies, grid: rows)
    assert cli.main(["memaudit", "--K", "2,10"]) == 1
    err = capsys.readouterr().err
    assert err == "FAIL: constspace (geometric) state words vary with K: [20, 21]\n"


def test_bounds_command(capsys):
    code = cli.main(["bounds", "--instance", "linear(K=4)", "--T", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "regret bound value" in out and "round-count cap" in out
    assert f"{math.ceil(math.log2(2 / 0.25))}" in out


def test_bounds_schedule_flag(capsys):
    code = cli.main(
        ["bounds", "--instance", "linear(K=4)", "--T", "1000", "--schedule", "polylog(0.25)"]
    )
    assert code == 0
    assert "schedule: polylog(0.25)" in capsys.readouterr().out
    code = cli.main(["bounds", "--instance", "linear(K=4)", "--T", "1000", "--schedule", "fancy"])
    assert code == 2
    assert "fancy" in capsys.readouterr().err


def test_bounds_rejects_degenerate(capsys):
    code = cli.main(["bounds", "--instance", "custom(means=0.5|0.5)", "--T", "1000"])
    assert code == 2
    assert "gaps" in capsys.readouterr().err


def test_bounds_two_group_regime_preset(capsys):
    code = cli.main(["bounds", "--instance", "two_group_ex2", "--T", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta_min=0.05" in out and "round-count cap" in out


def test_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a plain file where the output directory should go")
    code = cli.main(["run", "--T", "100", "--seeds", "1", "--out", str(blocker)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_unwritable_output_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("run_suite called with an unwritable output directory")

    monkeypatch.setattr(simulator, "run_suite", no_suite)
    blocker = tmp_path / "blocked"
    blocker.write_text("a plain file where a parent of the output directory should go")
    code = cli.main(["run", "--T", "100", "--seeds", "1", "--out", str(blocker / "out")])
    assert code == 3
    assert "error: cannot write outputs: " in capsys.readouterr().err


class _BrokenPool:
    """Stands in for ProcessPoolExecutor: a pool whose worker died mid-map."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        raise BrokenProcessPool("a child process terminated abruptly")


def test_broken_worker_pool_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BrokenPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["run", "--policy", "constspace,ucb1", "--T", "50", "--seeds", "1", "--jobs", "2"]
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "i/o error: worker pool failed: a child process terminated abruptly\n"


# Modules that only reward draws and the worker pool need.
_HEAVY = ("numpy", "multiprocessing", "concurrent.futures", "concurrent.futures.process")
# Modules that only parsing flags, reading INI text, writing results and
# running episodes need.
_DEFERRED = ("argparse", "configparser", "csv", "json", "statistics", "constbandit.simulator")
_SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(script: str, modules: tuple[str, ...] = _HEAVY) -> set[str]:
    """Run ``script`` in a fresh interpreter on this checkout's package and
    return which of ``modules`` it left loaded."""
    script += f"\nimport sys\nprint('loaded:', *(m for m in {modules!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    line = next(line for line in done.stdout.splitlines() if line.startswith("loaded:"))
    return set(line.split()[1:])


_IMPORT = "import constbandit, constbandit.cli"
_BOUNDS = """
from constbandit import cli
assert cli.main(['bounds', '--instance', 'linear(K=16)', '--T', '100000']) == 0
"""
_EPISODE = """
from constbandit import PolicyConfig, make_custom, run_episode
run_episode(PolicyConfig("constspace"), make_custom([0.9, 0.6], kind={kind!r}), 3000, 0)
"""
_RUN_JOBS_1 = """
import tempfile
from constbandit import cli
with tempfile.TemporaryDirectory() as out:
    assert cli.main(['run', '--jobs', '1', '--T', '100', '--seeds', '1', '--out', out]) == 0
"""


@pytest.mark.parametrize(
    "script,expected",
    [
        (_IMPORT, set()),
        (_BOUNDS, set()),
        (_EPISODE.format(kind="point"), set()),
        (_EPISODE.format(kind="bernoulli"), {"numpy"}),  # so the empty sets are not vacuous
        (_RUN_JOBS_1, {"numpy"}),
    ],
    ids=["import", "bounds", "point-episode", "bernoulli-episode", "run-jobs-1"],
)
def test_numpy_and_pool_load_only_when_used(script, expected):
    assert _loaded_after(script) == expected


@pytest.mark.parametrize(
    "script,expected",
    [
        (_IMPORT, set()),
        (_BOUNDS, {"argparse"}),
        ("import constbandit\nconstbandit.run_episode", {"constbandit.simulator"}),
        (_RUN_JOBS_1, set(_DEFERRED)),  # so the smaller sets are not vacuous
    ],
    ids=["import", "bounds", "episode-name", "run-jobs-1"],
)
def test_modules_load_only_when_used(script, expected):
    assert _loaded_after(script, _DEFERRED) == expected


def test_package_serves_the_simulator_names_on_first_use():
    import constbandit

    assert constbandit.simulator is simulator
    for name in ("EpisodeTrace", "RegretReport", "run_episode", "run_suite", "memory_audit"):
        assert getattr(constbandit, name) is getattr(simulator, name)
    assert not hasattr(constbandit, "no_such_name")


def test_parent_loads_numpy_before_forking_the_pool():
    # forked workers inherit the parent's numpy, and its random module, which
    # `import numpy` does not load, instead of each importing them
    script = (
        "import os\n"
        "os.cpu_count = lambda: 2  # a pool of two even on a one-core host,\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # or a process pinned to one core\n"
        "from constbandit import PolicyConfig, make_custom, run_suite\n"
        "cfgs = [PolicyConfig('constspace'), PolicyConfig('ucb1')]\n"
        "run_suite(cfgs, [make_custom([0.9, 0.6])], [50], 1, jobs=2)"
    )
    modules = (*_HEAVY, "numpy.random")
    assert _loaded_after(script, modules) == set(modules)


def test_memaudit_rejects_small_K(capsys):
    assert cli.main(["memaudit", "--K", "1,10"]) == 2
    assert "--K" in capsys.readouterr().err


def _pinned_ini(names, instance, T, seeds):
    return (
        f"[policy]\nnames = {names}\n\n[instance]\n{instance}\n"
        f"[grid]\nT = {T}\nseeds = {seeds}\nbase_seed = 0\n\n"
        "[output]\ndir = out\nformat = both\njobs = 1\n\n"
    )


# each preset's policy labels, [instance] section, horizons, seeds and written config
_PRESET_PINS = {
    "log_scaling": (
        ["constspace-geometric"], {"name": "custom", "means": "0.9, 0.6"}, [1000, 10000, 100000, 1000000], 50,
        _pinned_ini("constspace-geometric", "name = custom\nmeans = 0.9, 0.6\n", "1000, 10000, 100000, 1000000", 50),
    ),
    "competitive_ratio": (
        ["constspace-geometric", "constspace-polylog(0.5)", "ucb1"], {"name": "linear", "K": "16"}, [100000], 50,
        _pinned_ini("constspace-geometric, constspace-polylog(0.5), ucb1", "name = linear\nK = 16\n", "100000", 50),
    ),
    "doubling_overhead": (
        ["doubling-geometric", "constspace-geometric"], {"name": "custom", "means": "0.9, 0.6"}, [10000], 50,
        _pinned_ini("doubling-geometric, constspace-geometric", "name = custom\nmeans = 0.9, 0.6\n", "10000", 50),
    ),
    "lemma_suite": (
        ["constspace-geometric"], {"name": "custom", "means": "0.9, 0.8, 0.5, 0.3"}, [100000], 100,
        _pinned_ini("constspace-geometric", "name = custom\nmeans = 0.9, 0.8, 0.5, 0.3\n", "100000", 100),
    ),
}


def test_presets_resolve(preset_config):
    assert sorted(cli.PRESETS) == sorted(_PRESET_PINS)
    for (name, (labels, instance, horizons, seeds, ini)), command in product(_PRESET_PINS.items(), ("run", "verify")):
        cfg = preset_config(name, command)
        assert [p.label() for p in cfg.policies] == labels
        assert (cfg.instance, cfg.horizons, cfg.n_seeds, cfg.base_seed) == (instance, horizons, seeds, 0)
        assert cli.config_to_ini(cfg) == ini


def test_readme_preset_block_is_the_preset(preset_config):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    name, block = re.search(r"`--preset (\w+)` reads:\n\n```ini\n(.*?)```", readme, re.S).groups()
    assert cli.config_from_ini(block) == preset_config(name, "run")


def test_flags_override_bad_file_values(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text(
        "[policy]\nnames = nosuch\n[instance]\nname = mystery\n"
        "[grid]\nT = abc\nseeds = x\nbase_seed = -1\n"
        "[output]\ndir =\nformat = xml\njobs = none\n"
    )
    out = tmp_path / "out"
    flags = {
        "--policy": ("constspace", "policy.names: "),
        "--instance": ("custom(means=0.9|0.6)", "instance: name: "),
        "--T": ("100", "grid.T: "),
        "--seeds": ("1", "grid: "),
        "--base-seed": ("0", "grid.base_seed: "),
        "--out": (str(out), "output.dir: "),
        "--format": ("csv", "output.format: "),
        "--jobs": ("1", "output.jobs: "),
    }
    argv = ["run", "--config", str(config)]
    assert cli.main([*argv, *(x for flag, (value, _) in flags.items() for x in (flag, value))]) == 0
    assert [row[4] for row in read_csv(out / "results.csv")] == ["T", "100"]
    for dropped, (_, message) in flags.items():  # without its flag, each bad value fails under its key
        rest = [x for flag, (value, _) in flags.items() if flag != dropped for x in (flag, value)]
        capsys.readouterr()
        assert cli.main([*argv, *rest]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


def test_gap_too_small_for_the_bounds_exits_2(tmp_path, capsys):
    assert envs.make_custom([1e-320, 0.0]).delta_min == 1e-320  # the simulator runs it
    with pytest.raises(ValueError, match="2/delta_min a finite float"):
        rmax_bound(1e-320, GEOMETRIC)
    spec = "custom(means=1e-320|0)"
    out = tmp_path / "out"
    for argv in (
        ["bounds", "--instance", spec, "--T", "50"],
        ["verify", "--instance", spec, "--T", "50", "--seeds", "1"],
        ["run", "--instance", spec, "--T", "50", "--seeds", "1", "--out", str(out)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: instance: delta_min must lie in (0, 1] with 2/delta_min" in err and "Traceback" not in err
    assert not out.exists()


def test_bound_past_the_float_range_is_not_printed_as_inf(tmp_path, capsys):
    # 2/gap is a finite float, so the cap and the policies take this gap;
    # (1/gap) * ln T is not, so bounds refuses it and run writes the bound as NaN
    spec = "custom(means=1.2e-308|0)"
    assert cli.main(["bounds", "--instance", spec, "--T", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: instance: regret bound is not a finite float")
    assert "inf" not in captured.out + captured.err
    out = tmp_path / "out"
    assert cli.main(["run", "--instance", f"{spec[:-1]},kind=point)", "--T", "1000000", "--seeds", "1",
                     "--out", str(out)]) == 0
    header, row = read_csv(out / "results.csv")
    assert dict(zip(header, row))["bound_value"] == "nan"
    assert json.loads((out / "results.json").read_text(encoding="utf-8"))["reports"][0]["bound_value"] is None


def test_bounds_exits_2_when_the_round_count_cap_overflows(capsys):
    # 2/epsilon is past the float range, so the poly-log cap is not a finite float
    argv = ["bounds", "--instance", "linear(K=16)", "--T", "100", "--schedule", "polylog(1e-308)"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: instance: round-count cap is not a finite float at "
                            "delta_min=0.0625, epsilon=1e-308\n")


def test_verify_exits_2_before_any_episode_when_the_round_count_cap_overflows(monkeypatch, capsys):
    def no_episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(simulator, "run_episode", no_episode)
    argv = ["verify", "--policy", "constspace-polylog(1e-308)", "--instance", "custom(means=0.9|0.6)",
            "--T", "100", "--seeds", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: policy constspace-polylog(1e-308): round-count cap is not a finite "
                            "float at delta_min=0.3, epsilon=1e-308\n")


def test_run_writes_nan_when_the_round_count_cap_overflows(tmp_path, capsys):
    # run reads no cap, and its regret bound is past the float range too
    out = tmp_path / "out"
    argv = ["run", "--policy", "constspace-polylog(1e-308)", "--instance", "custom(means=0.9|0.6)",
            "--T", "100", "--seeds", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    header, row = read_csv(out / "results.csv")
    assert dict(zip(header, row))["bound_value"] == "nan"
    assert json.loads((out / "results.json").read_text(encoding="utf-8"))["reports"][0]["bound_value"] is None


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["run", "--config", "missing.ini"], 2, "config error: config: cannot read 'missing.ini'"),
        (["run", "--config", "latin1.ini"], 2, "config error: config: cannot read 'latin1.ini': 'utf-8' codec"),
        (["run", "--config", "no_header.ini"], 2,
         "config error: config file: File contains no section headers.\nfile: 'no_header.ini', line: 1"),
        (["run", "--seeds", "0"], 2, "config error: grid.seeds: must be >= 1"),
        (["bounds", "--instance", "linear(K=4)", "--T", "1"], 2, "config error: --T: horizon must be >= 2"),
        (["verify", "--instance", "custom(means=0.5|0.5)"], 2, "config error: instance: all gaps zero"),
        (["memaudit", "--K", "2", "--out", "plain"], 3, "error: cannot write audit table"),
    ],
    ids=["missing-config", "undecodable-config", "config-without-section", "zero-seeds", "horizon-1",
         "all-gaps-zero", "audit-out-is-a-file"],
)
def test_bad_input_exits_with_its_code(tmp_path, monkeypatch, capsys, argv, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.ini").write_bytes("[grid]\nT = 100 # \u00e9\n".encode("latin-1"))
    (tmp_path / "no_header.ini").write_text("T = 100\n", encoding="utf-8")
    (tmp_path / "plain").write_text("", encoding="utf-8")
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "<string>" not in err
    assert sorted(os.listdir(tmp_path)) == ["latin1.ini", "no_header.ini", "plain"]


def test_empty_output_dir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "empty.ini"
    config.write_text("[grid]\nT = 100\nseeds = 1\n[output]\ndir =\n")
    for argv in (["run", "--T", "100", "--seeds", "1", "--out", ""], ["run", "--config", str(config)]):
        assert cli.main(argv) == 2
        assert "config error: output.dir: must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["empty.ini"]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_preset_and_config_are_exclusive(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "f.ini"
    config.write_text("[grid]\nT = 100\nseeds = 1\n")
    assert cli.main([command, "--preset", "lemma_suite", "--config", str(config)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["f.ini"]
