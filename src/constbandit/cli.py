"""Command-line front end: run, verify, memaudit and bounds subcommands.

An experiment config is a flat INI file (one section per grid axis) or a
named preset, which is the same sections held in ``PRESETS``. Each flag
given is written over its ``[section] key`` and the result is read once, by
``config_from_ini``. A policy is named by its ``PolicyConfig`` spec, which
carries its schedule and any fixed delta, e.g.
``constspace-geometric@0.01``. An instance is an ``[instance]`` section of
text values, read from a file or from a spec such as ``linear(K=16)``;
``envs`` alone knows the instance preset names, their keys and defaults, and
how each key is read. Episode k of a cell is seeded
``base_seed + cell_index * n_seeds + k`` (``simulator.suite_cells``), and no
other randomness is used (no wall-clock entropy anywhere), so a rerun with
the same config is byte-identical regardless of --jobs.

Exit codes: 0 success, 1 assertion failure, 2 config error (gaps that
``bounds`` rejects included), 3 I/O or OS error.
"""

from __future__ import annotations

# argparse, configparser, csv, json and ``simulator`` are imported by the
# functions that use them, so importing this module loads none of them and
# ``bounds`` loads only argparse.
import io
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import product

from . import envs
from .bounds import regret_bound, rmax_bound
from .policies import ConstSpacePolicy, DoublingPolicy, PolicyConfig, make_policy
from .schedules import GEOMETRIC, Schedule, polylog, rounds_to_precision

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

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
    """One experiment grid; ``instance`` is the ``[instance]`` section as text."""

    policies: list[PolicyConfig] = field(default_factory=lambda: [PolicyConfig("constspace")])
    instance: dict[str, str] = field(default_factory=lambda: {"name": "custom", "means": "0.9, 0.6"})
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
        if not self.out_dir:
            raise ConfigError("output.dir: must not be empty")
        if self.jobs < 1:
            raise ConfigError("output.jobs: must be >= 1")
        if self.fmt not in ("csv", "json", "both"):
            raise ConfigError("output.format: must be csv, json or both")


# -- policy / instance spec strings ------------------------------------------

def parse_policy_spec(text: str) -> PolicyConfig:
    """``PolicyConfig.parse``, e.g. 'ucb1', 'constspace-polylog(0.5)',
    'constspace@1e-07', with its ValueError as a config error."""
    try:
        return PolicyConfig.parse(text)
    except ValueError as exc:
        raise ConfigError(f"policy.names: {exc}") from exc


def parse_policy_list(text: str) -> list[PolicyConfig]:
    """Parse a comma list of policy specs; an empty list is a config error."""
    policies = [parse_policy_spec(p) for p in text.split(",") if p.strip()]
    if not policies:
        raise ConfigError("policy.names: at least one policy is required")
    return policies


def parse_instance_spec(text: str) -> dict[str, str]:
    """``envs.parse_spec``, e.g. 'linear(K=16)' to its ``[instance]`` section,
    with a malformed spec as a config error; ``build_instance`` checks the rest."""
    try:
        return envs.parse_spec(text)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def build_instance(cfg: ExperimentConfig) -> envs.BanditInstance:
    """``envs.build_preset`` on the config's ``[instance]`` section, with an
    unknown preset or key, or a bad value, as a config error."""
    try:
        return envs.build_preset(cfg.instance)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def parse_int_list(text: str, where: str) -> list[int]:
    """Parse a comma list of integers such as '1000, 10000' (``[grid] T``,
    which ``--T`` writes, or ``memaudit --K``); a bad entry is a config error."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def check_policies(cfg: ExperimentConfig, instance: envs.BanditInstance) -> None:
    """Build each (policy, horizon) once, and for the doubling wrapper the
    inner policy of every level the horizon reaches, so that a delta or
    horizon a policy cannot use is a config error, not a failed cell."""
    if instance.delta_min is not None:
        try:
            rmax_bound(instance.delta_min, GEOMETRIC)  # a gap the bounds cannot take
        except ValueError as exc:
            raise ConfigError(f"instance: {exc}") from exc
    for policy, horizon in product(cfg.policies, cfg.horizons):
        where = f"policy {policy.label()} at T={horizon}"
        try:
            make_policy(policy, instance.n_arms, horizon)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if policy.name != "doubling":
            continue
        for level, level_horizon in enumerate(DoublingPolicy.level_horizons(horizon)):
            try:
                ConstSpacePolicy(instance.n_arms, level_horizon, policy.schedule)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{where}: level {level} (T_{level} = {level_horizon}): {exc}") from exc


# -- INI config files ---------------------------------------------------------

def _ini_parser(text: str = "") -> configparser.ConfigParser:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)  # a '%' in a value is literal
    parser.optionxform = str  # keep T and K case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return parser


def config_to_ini(cfg: ExperimentConfig) -> str:
    parser = _ini_parser()
    parser["policy"] = {"names": ", ".join(p.label() for p in cfg.policies)}
    parser["instance"] = cfg.instance
    parser["grid"] = {
        "T": ", ".join(str(T) for T in cfg.horizons),
        "seeds": str(cfg.n_seeds),
        "base_seed": str(cfg.base_seed),
    }
    parser["output"] = {"dir": cfg.out_dir, "format": cfg.fmt, "jobs": str(cfg.jobs)}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_from_ini(source: str | configparser.ConfigParser, output: bool = True) -> ExperimentConfig:
    """Config from INI text or parsed sections; a key left out keeps its
    default and ``output=False`` ignores ``[output]``. An unknown section,
    or a ``[DEFAULT]`` with keys, is a config error."""
    parser = _ini_parser(source) if isinstance(source, str) else source
    # each section's keys; ``envs.build_preset`` checks the instance's
    known = {"policy": ("names",), "instance": None, "grid": ("T", "seeds", "base_seed"),
             "output": ("dir", "format", "jobs") if output else None}
    for section in (["DEFAULT"] if parser.defaults() else []) + parser.sections():
        if section not in known:
            raise ConfigError(f"{section}: unknown section")
        for key in parser[section] if known[section] else ():
            if key not in known[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    cfg = ExperimentConfig()
    if parser.has_option("policy", "names"):
        cfg.policies = parse_policy_list(parser.get("policy", "names"))
    if parser.has_section("instance"):
        cfg.instance = dict(parser["instance"])
        build_instance(cfg)  # a bad section fails at load, as a bad key elsewhere does
    if parser.has_option("grid", "T"):
        cfg.horizons = parse_int_list(parser.get("grid", "T"), "grid.T")
    try:
        cfg.n_seeds = parser.getint("grid", "seeds", fallback=cfg.n_seeds)
        cfg.base_seed = parser.getint("grid", "base_seed", fallback=cfg.base_seed)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if output:
        cfg.out_dir = parser.get("output", "dir", fallback=cfg.out_dir)
        cfg.fmt = parser.get("output", "format", fallback=cfg.fmt)
        try:
            cfg.jobs = parser.getint("output", "jobs", fallback=cfg.jobs)
        except ValueError as exc:
            raise ConfigError(f"output.jobs: {exc}") from exc
    return cfg


# -- presets and config resolution --------------------------------------------

# Each paper experiment as the config-file sections it stands for.
PRESETS = {
    "log_scaling": {"policy": {"names": "constspace"},
                    "instance": {"name": "custom", "means": "0.9, 0.6"},
                    "grid": {"T": "1000, 10000, 100000, 1000000", "seeds": "50"}},
    "competitive_ratio": {"policy": {"names": "constspace, constspace-polylog(0.5), ucb1"},
                          "instance": {"name": "linear", "K": "16"},
                          "grid": {"T": "100000", "seeds": "50"}},
    "doubling_overhead": {"policy": {"names": "doubling, constspace"},
                          "instance": {"name": "custom", "means": "0.9, 0.6"},
                          "grid": {"T": "10000", "seeds": "50"}},
    "lemma_suite": {"policy": {"names": "constspace"},
                    "instance": {"name": "custom", "means": "0.9, 0.8, 0.5, 0.3"},
                    "grid": {"T": "100000", "seeds": "100"}},
}

# the ``[section] key`` each flag writes; ``--instance`` replaces ``[instance]``
FLAG_KEYS = {"policy": ("policy", "names"), "T": ("grid", "T"), "seeds": ("grid", "seeds"),
             "base_seed": ("grid", "base_seed"), "jobs": ("output", "jobs"), "out": ("output", "dir"),
             "format": ("output", "format")}


def resolve_config(args) -> ExperimentConfig:
    """The preset's sections or the --config file, each flag given written
    over its key, all read once by ``config_from_ini``."""
    import configparser

    parser = _ini_parser()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                parser.read_file(fh)  # a parse error names the file
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config file: {exc}") from exc
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        parser.read_dict(PRESETS[args.preset])
    for flag, (section, key) in FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            parser.read_dict({section: {key: getattr(args, flag)}})
    if args.instance is not None:
        parser["instance"] = parse_instance_spec(args.instance)
    cfg = config_from_ini(parser, output=args.command == "run")  # only run writes files
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
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(report_csv_rows(reports))


def reports_to_json(reports, cfg: ExperimentConfig | None = None) -> str:
    """Strict JSON: a NaN (or infinite) field is written as null."""
    import json

    payload = {"reports": [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in asdict(rep).items()}
        for rep in reports
    ]}
    if cfg is not None:
        payload["config"] = config_to_ini(cfg)
    return json.dumps(payload, indent=2, allow_nan=False)


def reports_from_json(text: str) -> list[simulator.RegretReport]:
    """Inverse of ``reports_to_json``; a null field other than ``error`` reads as NaN."""
    import json

    from . import simulator

    return [
        simulator.RegretReport(**{k: math.nan if v is None and k != "error" else v for k, v in d.items()})
        for d in json.loads(text)["reports"]
    ]


def write_json(reports, path: str, cfg: ExperimentConfig | None = None) -> None:
    text = reports_to_json(reports, cfg)  # built first: a config error leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def print_table(columns, rows, out=None) -> None:
    """Print a header, a rule and ``rows`` of string cells, each column as wide
    as its longest cell; ``columns`` pairs titles with ``<`` or ``>``. A short
    row ends in a note, such as an error, printed unpadded."""
    widths = [len(title) for title, _ in columns]
    for row in rows:
        for i, cell in enumerate(row if len(row) == len(columns) else row[:-1]):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return " ".join(f"{cell:{align}{width}}" for cell, (_, align), width in zip(cells, columns, widths))

    header = line([title for title, _ in columns])
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows:
        print(line(row) if len(row) == len(columns) else f"{line(row[:-1])} {row[-1]}", file=out)


def print_report_table(reports, out=None) -> None:
    columns = [("policy", "<"), ("schedule", "<"), ("instance", "<"), ("T", ">"),
               ("mean", ">"), ("std", ">"), ("bound", ">"), ("words", ">")]
    rows = []
    for rep in reports:
        labels = [rep.policy, rep.schedule, rep.instance, str(rep.horizon)]
        if rep.error is not None:
            rows.append([*labels, f"ERROR: {rep.error}"])
        else:
            stats = (rep.mean_regret, rep.stddev_regret, rep.bound_value)
            cells = (f"{x:.3f}" if abs(x) < 1e9 else f"{x:.6g}" for x in stats)
            rows.append([*labels, *cells, str(rep.state_words)])
    print_table(columns, rows, out)


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    from . import simulator

    cfg = resolve_config(args)
    instance = build_instance(cfg)
    check_policies(cfg, instance)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)  # before the suite, so a bad --out fails at once
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    reports = simulator.run_suite(
        cfg.policies, [instance], cfg.horizons, cfg.n_seeds, cfg.base_seed, jobs=cfg.jobs
    )
    try:
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
    """Deterministic schedule checks over the standard grid: the steps from g0
    to each target against ``rmax_bound(2 * target / g0)``, the round-count cap
    that ``bounds`` prints; halving meets it exactly, poly-log stays within it."""
    ok = True
    cells = 0
    for g0 in _GRID_G0:
        for exp in _GRID_TARGET_EXPONENTS:
            target = 2.0**-exp
            for schedule in (GEOMETRIC, *map(polylog, _GRID_EPSILONS)):
                count = rounds_to_precision(g0, target, schedule)
                cap = rmax_bound(2.0 * target / g0, schedule)
                if count != cap if schedule is GEOMETRIC else count > cap:
                    print(f"{schedule.label()} count {count} against cap {cap} at g0={g0}, target=2^-{exp}", file=out)
                    ok = False
                cells += schedule is not GEOMETRIC
    print(f"schedule grid: {cells} poly-log cells checked, {'pass' if ok else 'FAIL'}", file=out)
    return ok


def cmd_verify(args) -> int:
    from . import simulator

    cfg = resolve_config(args)
    if all(p.name == "ucb1" for p in cfg.policies):
        raise ConfigError("policy.names: verify needs a round-based policy")
    instance = build_instance(cfg)
    if instance.delta_min is None:
        raise ConfigError("instance: all gaps zero; guarantees are undefined")
    check_policies(cfg, instance)
    for policy in cfg.policies:  # the round-count cap the lemma checks read
        if policy.name != "ucb1":
            try:
                rmax_bound(instance.delta_min, policy.schedule)
            except ValueError as exc:
                raise ConfigError(f"policy {policy.label()}: {exc}") from exc
    tallies = {name: [0, 0] for name in simulator.CHECK_NAMES}  # pass, fail
    clean_runs = 0
    episodes = 0
    failures = []
    # Cells are numbered over the full grid, as in ``run``, so a round-based
    # cell verifies the seeds ``run`` gives it.
    cells = simulator.suite_cells(cfg.policies, [instance], cfg.horizons, cfg.n_seeds, cfg.base_seed)
    for _, policy, _, horizon, seeds in cells:
        if policy.name == "ucb1":
            continue
        for seed in seeds:
            trace = simulator.run_episode(policy, instance, horizon, seed)
            report = simulator.check_lemma_assertions(trace, instance, policy)
            episodes += 1
            clean_runs += 1 if report.clean_event else 0
            for check in report.checks:  # none on an unclean episode
                tallies[check.name][0 if check.passed else 1] += 1
                if not check.passed:
                    failures.append(f"{check.name}: {check.detail}")
    print(f"episodes: {episodes}, clean: {clean_runs}")
    vacuous = episodes - clean_runs
    note = f" ({vacuous} vacuous)" if vacuous else ""
    for name, (passed, failed) in tallies.items():
        print(f"{name}: {passed}/{passed + failed} pass{note}")
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
    from . import simulator

    grid = parse_int_list(args.K, "--K")
    if not grid or min(grid) < 2:
        raise ConfigError("--K: grid must be non-empty, with every K >= 2")
    policies = parse_policy_list(args.policies)
    rows = simulator.memory_audit(policies, grid)
    cells = [[r.policy, r.schedule, str(r.n_arms), str(r.words_at_reset), str(r.words_peak)] for r in rows]
    print_table([("policy", "<"), ("schedule", "<"), ("K", ">"), ("reset", ">"), ("peak", ">")], cells)
    if args.out:
        import csv

        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "memaudit.csv"), "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["policy", "schedule", "K", "words_at_reset", "words_peak"])
                writer.writerows(cells)
        except OSError as exc:
            print(f"error: cannot write audit table: {exc}", file=sys.stderr)
            return EXIT_IO
    words: dict[tuple[str, str], set[int]] = {}  # per round-based policy, over K
    for r in rows:
        if r.policy != "ucb1":
            words.setdefault((r.policy, r.schedule), set()).update((r.words_at_reset, r.words_peak))
    varying = [(name, counts) for name, counts in words.items() if len(counts) != 1]
    for (policy, schedule), counts in varying:
        print(f"FAIL: {policy} ({schedule}) state words vary with K: {sorted(counts)}", file=sys.stderr)
    return EXIT_FAIL if varying else EXIT_OK


def cmd_bounds(args) -> int:
    instance = build_instance(ExperimentConfig(instance=parse_instance_spec(args.instance)))
    if instance.delta_min is None:
        raise ConfigError("instance: all gaps zero; bounds are undefined")
    try:
        schedule = Schedule.parse(args.schedule)
    except ValueError as exc:
        raise ConfigError(f"--schedule: {exc}") from exc
    if args.T < 2:
        raise ConfigError("--T: horizon must be >= 2")
    try:  # a gap too small for the cap, or a bound past the float range
        cap = rmax_bound(instance.delta_min, schedule)
        bound = regret_bound(instance.gaps, args.T, schedule)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc
    print(f"instance: {instance.label}  K={instance.n_arms}  delta_min={instance.delta_min:g}")
    print(f"schedule: {schedule.label()}  T={args.T}")
    print(f"regret bound value: {_fmt_float(bound)}")
    print(f"round-count cap: {cap}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def _add_common_flags(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--config", help="INI experiment config file")
    source.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--policy", help="comma list, e.g. constspace-polylog(0.5),ucb1")
    sub.add_argument("--instance", help="instance spec, e.g. linear(K=16) or custom(means=0.9|0.6)")
    sub.add_argument("--T", help="comma list of horizons")
    sub.add_argument("--seeds", type=int, help="seeds per cell")
    sub.add_argument("--base-seed", type=int, dest="base_seed", help="first seed")


def build_parser() -> argparse.ArgumentParser:
    import argparse

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


if __name__ == "__main__":
    sys.exit(main())
