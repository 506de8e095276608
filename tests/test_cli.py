import csv
import json
import math
from concurrent.futures.process import BrokenProcessPool

import pytest

import constbandit.cli as cli
import constbandit.simulator as simulator
from constbandit import GEOMETRIC, PolicyConfig, polylog
from constbandit.simulator import LemmaCheck, LemmaReport


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_parse_policy_specs():
    assert cli.parse_policy_spec("ucb1") == PolicyConfig("ucb1")
    assert cli.parse_policy_spec("constspace") == PolicyConfig("constspace")
    assert cli.parse_policy_spec("constspace-geometric").schedule == GEOMETRIC
    assert cli.parse_policy_spec("constspace-polylog(0.25)").schedule == polylog(0.25)
    assert cli.parse_policy_spec("constspace-polylog").schedule == polylog(0.5)
    assert cli.parse_policy_spec("doubling-adaptive").schedule.kind == "adaptive"
    with pytest.raises(cli.ConfigError):
        cli.parse_policy_spec("constspace-fancy")
    with pytest.raises(cli.ConfigError):
        cli.parse_policy_spec("ucb1-geometric")


def test_parse_instance_specs():
    name, params = cli.parse_instance_spec("linear(K=16)")
    assert name == "linear" and params == {"K": 16}
    name, params = cli.parse_instance_spec("custom(means=0.9|0.6,kind=point)")
    assert name == "custom" and params == {"means": [0.9, 0.6], "kind": "point"}
    name, params = cli.parse_instance_spec("two_group(K=8,s=0.5,low_gap=0.1,high_gap=0.5)")
    assert params["s"] == 0.5
    with pytest.raises(cli.ConfigError):
        cli.parse_instance_spec("mystery(K=2)")
    with pytest.raises(cli.ConfigError):
        cli.parse_instance_spec("linear(frobs=2)")


def test_config_ini_round_trip():
    cfg = cli.ExperimentConfig(
        policies=[PolicyConfig("constspace", polylog(0.5)), PolicyConfig("ucb1")],
        instance_name="two_group",
        instance_params={"K": 8, "s": 0.5, "low_gap": 0.1, "high_gap": 0.5},
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
        policies=[PolicyConfig("constspace", delta_override=1e-7)],
        instance_name="custom",
        instance_params={"means": [0.9, 0.6]},
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
    delta_beside_cfg = cli.ExperimentConfig(  # the INI delta reaches constspace only
        policies=[
            PolicyConfig("constspace", delta_override=0.01),
            PolicyConfig("doubling"),
            PolicyConfig("ucb1"),
        ],
        horizons=[100],
    )
    assert cli.config_from_ini(cli.config_to_ini(delta_beside_cfg)) == delta_beside_cfg


def test_run_writes_json_for_delta_beside_other_policies(tmp_path):
    config = tmp_path / "delta.ini"
    config.write_text(
        "[policy]\nnames = constspace, doubling\ndelta = 0.01\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "results.json").read_text()
    assert [rep.policy for rep in cli.reports_from_json(text)] == ["constspace", "doubling"]
    saved = cli.config_from_ini(json.loads(text)["config"])
    assert [p.delta_override for p in saved.policies] == [0.01, None]


@pytest.mark.parametrize("names", ["doubling", "ucb1", "doubling, ucb1"])
def test_config_rejects_delta_without_constspace_policy(tmp_path, capsys, names):
    config = tmp_path / "delta.ini"
    config.write_text(
        f"[policy]\nnames = {names}\ndelta = 0.01\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert "policy.delta: applies to constspace policies only" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "policy.delta: applies to constspace policies only" in capsys.readouterr().err
    assert not out.exists()


_DELTA_CONFIG = (
    "[policy]\nnames = constspace\ndelta = 0.01\n"
    "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
    "[grid]\nT = 300\nseeds = 1\n"
)


@pytest.mark.parametrize(
    "flag,expected",
    [("constspace", [0.01]), ("constspace-polylog(0.5), ucb1", [0.01, None]), ("doubling, constspace", [None, 0.01])],
)
def test_policy_flag_keeps_config_delta(tmp_path, flag, expected):
    config = tmp_path / "delta.ini"
    config.write_text(_DELTA_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--policy", flag, "--out", str(out)]) == 0
    saved = cli.config_from_ini(json.loads((out / "results.json").read_text())["config"])
    assert [p.delta_override for p in saved.policies] == expected
    assert [cli.policy_spec_string(p) for p in saved.policies] == [
        cli.policy_spec_string(cli.parse_policy_spec(name)) for name in flag.split(",")
    ]


@pytest.mark.parametrize("flag", ["ucb1", "doubling", "doubling,ucb1"])
def test_policy_flag_without_constspace_rejects_config_delta(tmp_path, capsys, flag):
    config = tmp_path / "delta.ini"
    config.write_text(_DELTA_CONFIG)
    assert cli.main(["verify", "--config", str(config), "--policy", flag]) == 2
    assert "policy.delta: applies to constspace policies only" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--policy", flag, "--out", str(out)]) == 2
    assert "policy.delta: applies to constspace policies only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag", ["", " , "])
def test_empty_policy_flag_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "run" else []
    assert cli.main([command, "--policy", flag, "--T", "100", "--seeds", "1", *extra]) == 2
    assert "policy.names: at least one policy is required" in capsys.readouterr().err
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
        f"[policy]\nnames = constspace\ndelta = {delta}\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert "policy.delta: must lie in (0, 1)" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "policy.delta: must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_config_rejects_delta_whose_budget_overflows(tmp_path, capsys, command):
    # 1e-310 lies in (0, 1), but 1/delta is inf, so no round budget exists
    config = tmp_path / "delta.ini"
    config.write_text(
        "[policy]\nnames = constspace\ndelta = 1e-310\n"
        "[instance]\nname = custom\nmeans = 0.9, 0.6\n"
        "[grid]\nT = 300\nseeds = 1\n"
    )
    out = tmp_path / "out"
    argv = [command, "--config", str(config)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "policy constspace-geometric at T=300: pull budget overflows" in captured.err
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


def test_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[grid]\nwings = 2\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[instance]\nmeans = 0.5\n")  # name missing
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini("[instance]\nname = nosuch\n")


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


def test_json_round_trip_equals_reports(tmp_path):
    from constbandit import make_custom, run_suite

    inst = make_custom([0.9, 0.6])
    reports = run_suite([PolicyConfig("constspace")], [inst], [400], 2)
    text = cli.reports_to_json(reports)
    assert cli.reports_from_json(text) == reports


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


def test_verify_rejects_negative_env_seed(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "-3")
    assert cli.main(["verify", "--T", "100", "--seeds", "1"]) == 2
    assert "grid.base_seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--out", "x"], ["--jobs", "2"], ["--format", "csv"]])
def test_verify_rejects_run_only_flags(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--T", "100", "--seeds", "1", *flag]) == 2
    assert not (tmp_path / "x").exists()


def test_env_seed_overrides_base_seed(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv(cli.ENV_SEED, "99")
    assert cli.main(
        ["run", "--T", "200", "--seeds", "2", "--base-seed", "1", "--out", str(out_a)]
    ) == 0
    monkeypatch.delenv(cli.ENV_SEED)
    assert cli.main(
        ["run", "--T", "200", "--seeds", "2", "--base-seed", "99", "--out", str(out_b)]
    ) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


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
        "[policy]\nnames = constspace\ndelta = 0.2\n"
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
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _BrokenPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
    argv = ["run", "--policy", "constspace,ucb1", "--T", "50", "--seeds", "1", "--jobs", "2"]
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: worker pool failed: a child process terminated abruptly\n"


def test_memaudit_rejects_small_K(capsys):
    assert cli.main(["memaudit", "--K", "1,10"]) == 2
    assert "--K" in capsys.readouterr().err


def test_presets_resolve():
    for name in cli.PRESETS:
        cfg = cli.PRESETS[name]()
        cfg.validate()
    scaling = cli.PRESETS["log_scaling"]()
    assert scaling.horizons == [10**3, 10**4, 10**5, 10**6]
