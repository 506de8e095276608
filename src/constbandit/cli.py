"""Command-line front end: run, verify, memaudit and bounds subcommands.

Experiment configs live in flat INI files (one section per grid axis) and
every field can be overridden by a flag; the CONSTBANDIT_SEED environment
variable overrides the base seed last. Episode k of a cell is seeded
``base_seed + cell_index * n_seeds + k``, and no other randomness is used
(no wall-clock entropy anywhere), so a rerun with the same config is
byte-identical regardless of --jobs.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 I/O or OS error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, field
from itertools import product

from . import envs, simulator
from .bounds import regret_bound, rmax_bound
from .policies import PolicyConfig
from .schedules import GEOMETRIC, Schedule, polylog, polylog_rounds_bound, rounds_to_precision

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

ENV_SEED = "CONSTBANDIT_SEED"

CSV_COLUMNS = [
    "policy",
    "schedule",
    "instance",
    "K",
    "T",
    "seed_count",
    "mean_regret",
    "stddev_regret",
    "bound_value",
    "state_words",
    "r_max_mean",
    "clean_event_rate",
]


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    policies: list[PolicyConfig]
    instance_name: str = "custom"
    instance_params: dict = field(default_factory=lambda: {"means": [0.9, 0.6]})
    horizons: list[int] = field(default_factory=lambda: [1000])
    n_seeds: int = 2
    base_seed: int = 0
    jobs: int = 1
    out_dir: str = "out"
    fmt: str = "both"

    def validate(self):
        if not self.policies:
            raise ConfigError("policy.names: at least one policy is required")
        if not self.horizons or any(T < 1 for T in self.horizons):
            raise ConfigError("grid.T: horizons must be positive integers")
        if self.n_seeds < 1:
            raise ConfigError("grid.seeds: must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("grid.base_seed: must be >= 0")
        if self.jobs < 1:
            raise ConfigError("output.jobs: must be >= 1")
        if self.fmt not in ("csv", "json", "both"):
            raise ConfigError("output.format: must be csv, json or both")


def default_config() -> ExperimentConfig:
    return ExperimentConfig(policies=[PolicyConfig("constspace")])


# -- policy / instance spec strings ------------------------------------------

_POLICY_RE = re.compile(r"^(?P<name>constspace|doubling|ucb1)(?:-(?P<sched>.+))?$")


def parse_policy_spec(text: str) -> PolicyConfig:
    """Parse e.g. 'ucb1', 'constspace', 'constspace-polylog(0.5)', 'doubling-adaptive'."""
    m = _POLICY_RE.match(text.strip())
    if not m:
        raise ConfigError(f"policy.names: cannot parse policy spec {text!r}")
    name, sched = m.group("name"), m.group("sched")
    if name == "ucb1" and sched is not None:
        raise ConfigError("policy.names: ucb1 takes no schedule")
    try:
        return PolicyConfig(name, GEOMETRIC if sched is None else Schedule.parse(sched))
    except ValueError as exc:
        raise ConfigError(f"policy.names: {exc}") from exc


def parse_policy_list(text: str) -> list[PolicyConfig]:
    """Parse a comma list of policy specs; an empty list is a config error."""
    policies = [parse_policy_spec(p) for p in text.split(",") if p.strip()]
    if not policies:
        raise ConfigError("policy.names: at least one policy is required")
    return policies


def _with_delta(policies: list[PolicyConfig], delta: float | None) -> list[PolicyConfig]:
    """The policies with ``delta`` given to each constspace one, which at
    least one must be; a None delta leaves them as they are."""
    if delta is None:
        return policies
    if not any(p.name == "constspace" for p in policies):
        raise ConfigError("policy.delta: applies to constspace policies only, and none is named")
    return [PolicyConfig(p.name, p.schedule, delta if p.name == "constspace" else None) for p in policies]


def _shared_delta(policies: list[PolicyConfig]) -> float | None:
    """The delta ``_with_delta`` gave the constspace policies, or None."""
    deltas = {p.delta_override for p in policies if p.name == "constspace"}
    if not deltas - {None}:
        return None
    if len(deltas) != 1:
        raise ConfigError("policy.delta: per-policy overrides cannot be serialized")
    return deltas.pop()


def policy_spec_string(cfg: PolicyConfig) -> str:
    if cfg.name == "ucb1":
        return "ucb1"
    return f"{cfg.name}-{cfg.schedule.label()}"


_INSTANCE_PARAM_TYPES = {
    "K": int,
    "s": float,
    "low_gap": float,
    "high_gap": float,
    "best_mean": float,
    "kind": str,
}


def _parse_instance_params(name: str, items) -> dict:
    params: dict = {}
    for key, raw in items:
        key = key.strip()
        raw = raw.strip()
        if key == "means":
            try:
                params["means"] = [float(x) for x in re.split(r"[|,]", raw) if x.strip()]
            except ValueError as exc:
                raise ConfigError(f"instance.means: {exc}") from exc
        elif key in _INSTANCE_PARAM_TYPES:
            try:
                params[key] = _INSTANCE_PARAM_TYPES[key](raw)
            except ValueError as exc:
                raise ConfigError(f"instance.{key}: {exc}") from exc
        else:
            raise ConfigError(f"instance.{key}: unknown parameter for preset {name!r}")
    return params


def parse_instance_spec(text: str) -> tuple[str, dict]:
    """Parse e.g. 'linear(K=16)' or 'custom(means=0.9|0.6,kind=point)'."""
    text = text.strip()
    m = re.match(r"^(?P<name>[a-z_0-9]+)(?:\((?P<args>.*)\))?$", text)
    if not m:
        raise ConfigError(f"instance: cannot parse instance spec {text!r}")
    name = m.group("name")
    if name not in envs.PRESET_NAMES:
        raise ConfigError(f"instance.name: unknown preset {name!r}; choose from {envs.PRESET_NAMES}")
    args = m.group("args")
    items = []
    if args:
        for part in args.split(","):
            if not part.strip():
                continue
            if "=" not in part:
                raise ConfigError(f"instance: expected key=value, got {part!r}")
            key, raw = part.split("=", 1)
            items.append((key, raw))
    return name, _parse_instance_params(name, items)


def build_instance(cfg: ExperimentConfig) -> envs.BanditInstance:
    try:
        return envs.build_preset(cfg.instance_name, **cfg.instance_params)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def check_policies(cfg: ExperimentConfig, instance: envs.BanditInstance) -> None:
    """Build each (policy, horizon) once, so that a delta or horizon a policy
    cannot use is a config error, not a failed cell."""
    for policy, horizon in product(cfg.policies, cfg.horizons):
        try:
            simulator.make_policy(policy, instance.n_arms, horizon)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"policy {policy_spec_string(policy)} at T={horizon}: {exc}") from exc


# -- INI config files ---------------------------------------------------------

def _ini_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep T and K case-sensitive
    return parser


def config_to_ini(cfg: ExperimentConfig) -> str:
    parser = _ini_parser()
    parser["policy"] = {"names": ", ".join(policy_spec_string(p) for p in cfg.policies)}
    delta = _shared_delta(cfg.policies)
    if delta is not None:
        parser["policy"]["delta"] = repr(delta)
    inst = {"name": cfg.instance_name}
    for key, value in cfg.instance_params.items():
        if key == "means":
            inst["means"] = ", ".join(repr(m) for m in value)
        else:
            inst[key] = str(value)
    parser["instance"] = inst
    parser["grid"] = {
        "T": ", ".join(str(T) for T in cfg.horizons),
        "seeds": str(cfg.n_seeds),
        "base_seed": str(cfg.base_seed),
    }
    parser["output"] = {"dir": cfg.out_dir, "format": cfg.fmt, "jobs": str(cfg.jobs)}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_from_ini(text: str, output: bool = True) -> ExperimentConfig:
    """Config from INI text; ``output=False`` ignores the ``[output]`` section."""
    parser = _ini_parser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file: {exc}") from exc
    cfg = default_config()
    if parser.has_section("policy"):
        names = parser.get("policy", "names", fallback="constspace")
        cfg.policies = parse_policy_list(names)
        if parser.has_option("policy", "delta"):
            try:
                delta = float(parser.get("policy", "delta"))
            except ValueError as exc:
                raise ConfigError(f"policy.delta: {exc}") from exc
            if not 0.0 < delta < 1.0:
                raise ConfigError("policy.delta: must lie in (0, 1)")
            cfg.policies = _with_delta(cfg.policies, delta)
        for key in parser["policy"]:
            if key not in ("names", "delta"):
                raise ConfigError(f"policy.{key}: unknown key")
    if parser.has_section("instance"):
        if not parser.has_option("instance", "name"):
            raise ConfigError("instance.name: missing instance preset name")
        cfg.instance_name = parser.get("instance", "name").strip()
        if cfg.instance_name not in envs.PRESET_NAMES:
            raise ConfigError(
                f"instance.name: unknown preset {cfg.instance_name!r}; choose from {envs.PRESET_NAMES}"
            )
        items = [(k, v) for k, v in parser["instance"].items() if k != "name"]
        cfg.instance_params = _parse_instance_params(cfg.instance_name, items)
    if parser.has_section("grid"):
        for key in parser["grid"]:
            if key not in ("T", "seeds", "base_seed"):
                raise ConfigError(f"grid.{key}: unknown key")
        try:
            if parser.has_option("grid", "T"):
                cfg.horizons = [int(x) for x in parser.get("grid", "T").split(",") if x.strip()]
            if parser.has_option("grid", "seeds"):
                cfg.n_seeds = int(parser.get("grid", "seeds"))
            if parser.has_option("grid", "base_seed"):
                cfg.base_seed = int(parser.get("grid", "base_seed"))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    if output and parser.has_section("output"):
        for key in parser["output"]:
            if key not in ("dir", "format", "jobs"):
                raise ConfigError(f"output.{key}: unknown key")
        cfg.out_dir = parser.get("output", "dir", fallback=cfg.out_dir)
        cfg.fmt = parser.get("output", "format", fallback=cfg.fmt)
        try:
            cfg.jobs = int(parser.get("output", "jobs", fallback=str(cfg.jobs)))
        except ValueError as exc:
            raise ConfigError(f"output.jobs: {exc}") from exc
    return cfg


# -- presets -----------------------------------------------------------------

def _preset_log_scaling() -> ExperimentConfig:
    return ExperimentConfig(
        policies=[PolicyConfig("constspace")],
        instance_name="custom",
        instance_params={"means": [0.9, 0.6]},
        horizons=[10**3, 10**4, 10**5, 10**6],
        n_seeds=50,
    )


def _preset_competitive_ratio() -> ExperimentConfig:
    return ExperimentConfig(
        policies=[
            PolicyConfig("constspace"),
            PolicyConfig("constspace", polylog(0.5)),
            PolicyConfig("ucb1"),
        ],
        instance_name="linear",
        instance_params={"K": 16},
        horizons=[10**5],
        n_seeds=50,
    )


def _preset_doubling_overhead() -> ExperimentConfig:
    return ExperimentConfig(
        policies=[PolicyConfig("doubling"), PolicyConfig("constspace")],
        instance_name="custom",
        instance_params={"means": [0.9, 0.6]},
        horizons=[10**4],
        n_seeds=50,
    )


def _preset_lemma_suite() -> ExperimentConfig:
    return ExperimentConfig(
        policies=[PolicyConfig("constspace")],
        instance_name="custom",
        instance_params={"means": [0.9, 0.8, 0.5, 0.3]},
        horizons=[10**5],
        n_seeds=100,
    )


PRESETS = {
    "log_scaling": _preset_log_scaling,
    "competitive_ratio": _preset_competitive_ratio,
    "doubling_overhead": _preset_doubling_overhead,
    "lemma_suite": _preset_lemma_suite,
}


# -- config resolution --------------------------------------------------------

def resolve_config(args) -> ExperimentConfig:
    """File or preset first, then flags, then the seed environment variable."""
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        cfg = PRESETS[args.preset]()
    elif getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
        cfg = config_from_ini(text, output=args.command == "run")  # only run writes files
    else:
        cfg = default_config()

    if getattr(args, "policy", None) is not None:  # keeps a config file's [policy] delta
        cfg.policies = _with_delta(parse_policy_list(args.policy), _shared_delta(cfg.policies))
    if getattr(args, "instance", None):
        cfg.instance_name, cfg.instance_params = parse_instance_spec(args.instance)
    if getattr(args, "T", None):
        try:
            cfg.horizons = [int(x) for x in args.T.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"--T: {exc}") from exc
    if getattr(args, "seeds", None) is not None:
        cfg.n_seeds = args.seeds
    if getattr(args, "base_seed", None) is not None:
        cfg.base_seed = args.base_seed
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "format", None):
        cfg.fmt = args.format

    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg.base_seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED}: {exc}") from exc
    cfg.validate()
    return cfg


# -- output writers -----------------------------------------------------------

def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def report_csv_rows(reports) -> list[list[str]]:
    rows = []
    for rep in reports:
        if rep.error is not None:
            continue
        rows.append(
            [
                rep.policy,
                rep.schedule,
                rep.instance,
                str(rep.n_arms),
                str(rep.horizon),
                str(len(rep.seeds)),
                _fmt_float(rep.mean_regret),
                _fmt_float(rep.stddev_regret),
                _fmt_float(rep.bound_value),
                str(rep.state_words),
                _fmt_float(rep.r_max_mean),
                _fmt_float(rep.clean_event_rate),
            ]
        )
    return rows


def write_csv(reports, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(report_csv_rows(reports))


def reports_to_json(reports, cfg: ExperimentConfig | None = None) -> str:
    payload = {"reports": [asdict(rep) for rep in reports]}
    if cfg is not None:
        payload["config"] = config_to_ini(cfg)
    return json.dumps(payload, indent=2)


def reports_from_json(text: str) -> list[simulator.RegretReport]:
    payload = json.loads(text)
    reports = []
    for d in payload["reports"]:
        d["trajectory_mean"] = [list(pair) for pair in d.get("trajectory_mean", [])]
        reports.append(simulator.RegretReport(**d))
    return reports


def write_json(reports, path: str, cfg: ExperimentConfig | None = None) -> None:
    text = reports_to_json(reports, cfg)  # built first: a config error leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def print_report_table(reports, out=None) -> None:
    out = out if out is not None else sys.stdout
    header = f"{'policy':<12} {'schedule':<14} {'instance':<28} {'T':>9} {'mean':>12} {'std':>10} {'bound':>12} {'words':>6}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for rep in reports:
        if rep.error is not None:
            print(f"{rep.policy:<12} {rep.schedule:<14} {rep.instance:<28} {rep.horizon:>9} ERROR: {rep.error}", file=out)
            continue
        print(
            f"{rep.policy:<12} {rep.schedule:<14} {rep.instance:<28} {rep.horizon:>9} "
            f"{rep.mean_regret:>12.3f} {rep.stddev_regret:>10.3f} {rep.bound_value:>12.3f} {rep.state_words:>6}",
            file=out,
        )


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = resolve_config(args)
    instance = build_instance(cfg)
    check_policies(cfg, instance)
    reports = simulator.run_suite(
        cfg.policies, [instance], cfg.horizons, cfg.n_seeds, cfg.base_seed, jobs=cfg.jobs
    )
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if cfg.fmt in ("csv", "both"):
            write_csv(reports, os.path.join(cfg.out_dir, "results.csv"))
        if cfg.fmt in ("json", "both"):
            write_json(reports, os.path.join(cfg.out_dir, "results.json"), cfg)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print_report_table(reports)
    failed = [rep for rep in reports if rep.error is not None]
    if failed:
        print(f"{len(failed)} cell(s) failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


_GRID_G0 = (0.5, 1.0)
_GRID_TARGET_EXPONENTS = range(4, 25)
_GRID_EPSILONS = (0.25, 0.5, 1.0)


def schedule_grid_ok(out=None) -> bool:
    """Deterministic schedule checks: halving counts are exact, poly-log
    counts respect their closed-form cap over the standard grid."""
    out = out if out is not None else sys.stdout
    ok = True
    cells = 0
    for g0 in _GRID_G0:
        for exp in _GRID_TARGET_EXPONENTS:
            target = 2.0**-exp
            expected = math.ceil(math.log2(g0 / target))
            if rounds_to_precision(g0, target, GEOMETRIC) != expected:
                print(f"geometric count mismatch at g0={g0}, target=2^-{exp}", file=out)
                ok = False
            for eps in _GRID_EPSILONS:
                cells += 1
                count = rounds_to_precision(g0, target, polylog(eps))
                cap = polylog_rounds_bound(g0, target, eps)
                if count > cap:
                    print(
                        f"polylog count {count} exceeds cap {cap:.2f} at g0={g0}, target=2^-{exp}, eps={eps}",
                        file=out,
                    )
                    ok = False
    print(f"schedule grid: {cells} poly-log cells checked, {'pass' if ok else 'FAIL'}", file=out)
    return ok


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    if all(p.name == "ucb1" for p in cfg.policies):
        raise ConfigError("policy.names: verify needs a round-based policy")
    instance = build_instance(cfg)
    if instance.delta_min is None:
        raise ConfigError("instance: all gaps zero; guarantees are undefined")
    check_policies(cfg, instance)
    tallies = {name: [0, 0] for name in simulator.CHECK_NAMES}  # pass, fail
    clean_runs = 0
    episodes = 0
    failures = []
    # Cells are numbered over the full policy x horizon grid, as in ``run``,
    # so a round-based cell verifies the seeds ``run`` gives it.
    for index, (policy, horizon) in enumerate(product(cfg.policies, cfg.horizons)):
        if policy.name == "ucb1":
            continue
        for seed in simulator._cell_seeds(cfg.base_seed, index, cfg.n_seeds):
            trace = simulator.run_episode(policy, instance, horizon, seed)
            report = simulator.check_lemma_assertions(trace, instance, policy)
            episodes += 1
            clean_runs += 1 if report.clean_event else 0
            for check in report.checks:  # none on an unclean episode
                if check.passed:
                    tallies[check.name][0] += 1
                else:
                    tallies[check.name][1] += 1
                    failures.append(f"{check.name}: {check.detail}")
    print(f"episodes: {episodes}, clean: {clean_runs}")
    vacuous = episodes - clean_runs
    for name, (passed, failed) in tallies.items():
        line = f"{name}: {passed}/{passed + failed} pass"
        if vacuous:
            line += f" ({vacuous} vacuous)"
        print(line)
    grid_ok = schedule_grid_ok()
    for failure in failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures or not grid_ok:
        return EXIT_FAIL
    return EXIT_OK


DEFAULT_AUDIT_GRID = (2, 10, 100, 1000, 100000)
DEFAULT_AUDIT_POLICIES = (
    "constspace-geometric",
    "constspace-polylog(0.5)",
    "constspace-adaptive",
    "doubling",
    "ucb1",
)


def cmd_memaudit(args) -> int:
    try:
        grid = [int(x) for x in args.K.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--K: {exc}") from exc
    if not grid or min(grid) < 2:
        raise ConfigError("--K: grid must be non-empty, with every K >= 2")
    policies = parse_policy_list(args.policies)
    rows = simulator.memory_audit(policies, grid)
    print(f"{'policy':<12} {'schedule':<14} {'K':>8} {'reset':>7} {'peak':>7}")
    for row in rows:
        print(f"{row.policy:<12} {row.schedule:<14} {row.n_arms:>8} {row.words_at_reset:>7} {row.words_peak:>7}")
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "memaudit.csv"), "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["policy", "schedule", "K", "words_at_reset", "words_peak"])
                for row in rows:
                    writer.writerow([row.policy, row.schedule, row.n_arms, row.words_at_reset, row.words_peak])
        except OSError as exc:
            print(f"error: cannot write audit table: {exc}", file=sys.stderr)
            return EXIT_IO
    constant_ok = True
    for name in {(r.policy, r.schedule) for r in rows}:
        if name[0] == "ucb1":
            continue
        words = {r.words_peak for r in rows if (r.policy, r.schedule) == name} | {
            r.words_at_reset for r in rows if (r.policy, r.schedule) == name
        }
        if len(words) != 1:
            print(f"FAIL: {name[0]} ({name[1]}) state words vary with K: {sorted(words)}", file=sys.stderr)
            constant_ok = False
    return EXIT_OK if constant_ok else EXIT_FAIL


def cmd_bounds(args) -> int:
    name, params = parse_instance_spec(args.instance)
    try:
        instance = envs.build_preset(name, **params)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc
    if instance.delta_min is None:
        raise ConfigError("instance: all gaps zero; bounds are undefined")
    try:
        schedule = Schedule.parse(args.schedule)
    except ValueError as exc:
        raise ConfigError(f"--schedule: {exc}") from exc
    if args.T < 2:
        raise ConfigError("--T: horizon must be >= 2")
    bound = regret_bound(instance.gap_profile, args.T, schedule)
    cap = rmax_bound(instance.delta_min, schedule)
    print(f"instance: {instance.label}  K={instance.n_arms}  delta_min={instance.delta_min:g}")
    print(f"schedule: {schedule.label()}  T={args.T}")
    print(f"regret bound value: {_fmt_float(bound)}")
    print(f"round-count cap: {cap}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def _add_common_flags(sub):
    sub.add_argument("--config", help="INI experiment config file")
    sub.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--policy", help="comma list, e.g. constspace-polylog(0.5),ucb1")
    sub.add_argument("--instance", help="instance spec, e.g. linear(K=16) or custom(means=0.9|0.6)")
    sub.add_argument("--T", help="comma list of horizons")
    sub.add_argument("--seeds", type=int, help="seeds per cell")
    sub.add_argument("--base-seed", type=int, dest="base_seed", help="first seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="constbandit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run an experiment suite and emit CSV/JSON")
    _add_common_flags(run_p)
    run_p.add_argument("--jobs", type=int, help="parallel workers for suite cells")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--format", choices=["csv", "json", "both"], help="output formats")
    run_p.set_defaults(func=cmd_run)

    verify_p = subs.add_parser("verify", help="check per-round guarantees on recorded episodes")
    _add_common_flags(verify_p)
    verify_p.set_defaults(func=cmd_verify)

    mem_p = subs.add_parser("memaudit", help="audit policy state words across arm counts")
    mem_p.add_argument("--K", default=",".join(str(k) for k in DEFAULT_AUDIT_GRID))
    mem_p.add_argument("--policies", default=",".join(DEFAULT_AUDIT_POLICIES))
    mem_p.add_argument("--out", help="output directory")
    mem_p.set_defaults(func=cmd_memaudit)

    bounds_p = subs.add_parser("bounds", help="print bound values for an instance")
    bounds_p.add_argument("--instance", required=True)
    bounds_p.add_argument("--T", type=int, required=True)
    bounds_p.add_argument("--schedule", default="geometric")
    bounds_p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for bad flags
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor as exc:
        print(f"error: worker pool failed: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
