"""Benchmark for constbandit: episode throughput end to end, and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record N [--workload NAME]

A run builds the workload's inputs from ``--seed`` (see ``plans.py``), then
repeats it for ``--seconds`` seconds and reports medians over repetitions.

``--trace 0`` measures the end-to-end metrics with no wrapper installed:
set-up time (the median of several fresh interpreters), wall time, pulls per
second, peak RSS of this process and of its reaped pool workers, and the
share of units (cells or episodes) that neither raised nor failed the output
check. (The share that failed, the error rate, is 1 minus that; it is
reported as a success rate so that the metric is never 0.)

Timings are scaled to a nominal host speed: a fixed pure-Python loop is
timed just before and just after every timed section, and the section's
time is multiplied by ``REF_NOMINAL_NS`` over the mean of the two loop
times. On a shared host the neighbours' load changes how fast this process
runs by up to 1.7x for tens of seconds; the scaling removes most of that
drift. Raw timings are printed beside the scaled ones and in the
provenance line.

``--trace 1`` gives the per-layer metrics. It first repeats the workload
untraced for a third of the time, then traced (see ``tracer.py``) for the
rest; ``trace.overhead_ratio`` is the ratio of the two median walls. Counts
must repeat exactly between traced repetitions.

Output check: every repetition's output digest must equal the first one's
and, for the seeds recorded in ``reference.json`` (``--record N`` writes
seeds 0..N-1 from the code at hand), the recorded digest. Traced runs also
compare a digest of per-episode pull counts. Workload invariants (CSV
against JSON, seed blocks, lemma checks on clean episodes) hold for any
seed; see ``workloads.py``.

Provenance (nproc, versions, commit, seed, workers, a pure-Python reference
loop timed around each repetition) is printed on the line before the last.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 7
# The reference loop's time on an idle core of the 2-core 2.0 GHz Xeon host
# the benchmark was tuned on. Neighbours on a shared host slow that loop and
# the workload alike, by up to 1.7x for tens of seconds, so every timing is
# reported scaled to this speed; the raw timings are printed beside them.
REF_NOMINAL_NS = 10_000_000
MIN_REPS = 3
MIN_TRACED_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "pulls/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "envs.draw_calls": "count",
    "envs.draw_ns": "ns",
    "envs.draw_use_ratio": "ratio",
    "policies.constspace.step_ns": "ns",
    "policies.doubling.step_ns": "ns",
    "policies.ucb1.step_ns": "ns",
    "policies.ucb1.select_per_step": "ratio",
    "policies.step_calls": "count",
    "policies.round_closes": "count",
    "policies.early_ruleouts": "count",
    "policies.explore_fraction": "ratio",
    "policies.bulk_exploit_steps": "count",
    "simulator.episode_self_ns_per_step": "ns",
    "simulator.lemma_check_s": "s",
    "simulator.cell_max_s": "s",
    "simulator.fanout_efficiency": "ratio",
    "simulator.round_records": "count",
    "cli.emit_s": "s",
    "cli.bytes_written": "bytes",
    "host.ref_loop_ns": "ns",
    "trace.overhead_ratio": "ratio",
}
# Per-layer values that must repeat exactly between repetitions.
EXACT = (
    "envs.draw_calls", "envs.draw_use_ratio", "policies.ucb1.select_per_step",
    "policies.step_calls", "policies.round_closes", "policies.early_ruleouts",
    "policies.explore_fraction", "policies.bulk_exploit_steps",
    "simulator.round_records", "cli.bytes_written",
)


def load_package():
    """Import constbandit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import constbandit

    if not Path(constbandit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"constbandit imported from {constbandit.__file__}, not {src}")
    return constbandit


def ref_loop_ns() -> int:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    return time.perf_counter_ns() - start


class Timed:
    """Runs timed sections between two reference loops and scales them to
    the nominal host speed: measured × REF_NOMINAL_NS / mean of the loops."""

    def __init__(self):
        self.ref_loops: list[int] = []

    def __call__(self, section):
        before = ref_loop_ns()
        seconds, value = section()
        after = ref_loop_ns()
        self.ref_loops += [before, after]
        return seconds, seconds * 2 * REF_NOMINAL_NS / (before + after), value


def setup_seconds(workload: str, seed: int) -> tuple[float, None]:
    env = {k: v for k, v in os.environ.items() if k != "CONSTBANDIT_SEED"}
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]), None


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def commit() -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Repeats one workload plan and collects timings, checks and digests."""

    def __init__(self, cb, plan, reference: dict | None):
        import tracer
        import workloads

        self.cb, self.plan, self.tracer_cls, self.workloads = cb, plan, tracer.Tracer, workloads
        self.expected = (reference or {}).get(plan.workload, {}).get(str(plan.seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.pull_digests: set[str] = set()
        self.timed = Timed()
        self.missing: set[str] = set()

    def repeat(self, seconds, min_reps, traced, between=None) -> list[tuple[float, float, dict]]:
        reps = []
        start = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - start < seconds:
            reps.append(self.once(traced))
            if between is not None:
                between()
        return reps

    def once(self, traced: bool) -> tuple[float, float, dict]:
        """One repetition: (raw wall s, scaled wall s, per-layer values or {})."""
        return self.timed(lambda: self._execute(traced))

    def _execute(self, traced: bool) -> tuple[float, dict]:
        WORK_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=WORK_DIR)
        tracer = self.tracer_cls() if traced else None
        try:
            if tracer is not None:
                tracer.install(self.cb)
            try:
                start = time.perf_counter()
                try:
                    raw = self.workloads.execute(self.plan, out_dir)
                except Exception as exc:  # fails the repetition's units, not the benchmark
                    raw = exc
                wall = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.remove()
            checked = self.workloads.check(self.plan, raw, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_DIR.rmdir()  # only once empty: another run may share it
        mismatch = []
        if self.expected is not None and checked.digest != self.expected["outputs"]:
            mismatch.append("output digest differs from the recorded reference")
        self.digests.add(checked.digest)
        layers = {}
        if tracer is not None:
            self.missing.update(tracer.missing)
            layers = tracer.metrics()
            pulls = self.workloads.digest(sorted(tracer.episodes))
            self.pull_digests.add(pulls)
            if self.expected is not None and pulls != self.expected["pulls"]:
                mismatch.append("pull-count digest differs from the recorded reference")
        # A digest names no unit, so a mismatch fails every unit of the repetition.
        self.attempted += checked.attempted
        self.failed += checked.attempted if mismatch else checked.failed
        self.problems += checked.problems + mismatch
        return wall, layers

    def correct(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append("outputs differ between repetitions")
        if len(self.pull_digests) > 1:
            self.problems.append("pull counts differ between repetitions")
        return self.failed == 0 and not self.problems


def measure(cb, plan, seconds: float, trace: bool, reference: dict | None):
    runner = Runner(cb, plan, reference)
    provenance = {}
    if not trace:
        # Probes run between repetitions, so they sample the same host phases.
        setups = []

        def probe():
            if len(setups) < SETUP_LAUNCHES:
                setups.append(runner.timed(lambda: setup_seconds(plan.workload, plan.seed)))

        reps = runner.repeat(seconds, MIN_REPS, traced=False, between=probe)
        while len(setups) < SETUP_LAUNCHES:
            probe()
        wall = median(scaled for _, scaled, _ in reps)
        metrics = {
            "setup_s": median(scaled for _, scaled, _ in setups),
            "wall_s": wall,
            "steps_per_s": plan.pulls / wall,
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }
        raw = {
            "setup_s": median(s for s, _, _ in setups),
            "wall_s": median(w for w, _, _ in reps),
        }
        raw["steps_per_s"] = plan.pulls / raw["wall_s"]
        provenance.update(setup_s=[s for s, _, _ in setups], wall_s=[w for w, _, _ in reps])
    else:
        untraced = runner.repeat(seconds / 3, 1, traced=False)
        traced = runner.repeat(seconds * 2 / 3, MIN_TRACED_REPS, traced=True)
        layers = []
        for raw_wall, scaled, values in traced:
            scale = scaled / raw_wall
            layers.append({
                name: value * scale if PER_LAYER[name] in ("ns", "s") else value
                for name, value in values.items()
            })
        for name in EXACT:
            if len({values[name] for values in layers}) > 1:
                runner.problems.append(f"{name} differs between traced repetitions")
        metrics = {name: median(values[name] for values in layers) for name in layers[0]}
        metrics["host.ref_loop_ns"] = median(runner.timed.ref_loops)
        metrics["trace.overhead_ratio"] = (
            median(s for _, s, _ in traced) / median(s for _, s, _ in untraced)
        )
        raw = {
            name: median(values[name] for _, _, values in traced)
            for name, unit in PER_LAYER.items() if unit in ("ns", "s") and name in layers[0]
        }
        provenance.update(
            untraced_wall_s=[w for w, _, _ in untraced], traced_wall_s=[w for w, _, _ in traced]
        )
    provenance["ref_loop_ns"] = runner.timed.ref_loops
    provenance["raw"] = raw
    correct = runner.correct()
    return correct, runner, metrics, provenance


def record(cb, seeds: int, workloads_wanted) -> None:
    """Write the output and pull-count digests of seeds 0..seeds-1."""
    import plans

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in workloads_wanted:
        table = reference.setdefault(workload, {})
        for seed in range(seeds):
            runner = Runner(cb, plans.build(workload, seed), None)
            runner.once(traced=True)
            if not runner.correct():
                raise RuntimeError(f"{workload} seed {seed}: {runner.problems}")
            table[str(seed)] = {
                "outputs": runner.digests.pop(),
                "pulls": runner.pull_digests.pop(),
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def report_lines(plan, trace, correct, runner, metrics, provenance) -> list[str]:
    """Provenance, a table of every metric with its unit, then the JSON result."""
    import numpy
    import plans

    units = PER_LAYER if trace else END_TO_END
    provenance = dict(
        provenance,
        workload=plan.workload, seed=plan.seed, base_seed=plan.base_seed,
        episodes=plan.episodes, horizon=plan.horizon, workers=plan.jobs,
        nproc=plans.nproc(), python=platform.python_version(), numpy=numpy.__version__,
        commit=commit(),
        reference="recorded" if runner.expected is not None else "not recorded",
        problems=runner.problems[:20],
        entry_points_not_found=sorted(runner.missing),
    )
    lines = ["provenance " + json.dumps(provenance)]
    raw = provenance["raw"]
    lines += [
        f"{name:<38} {metrics[name]:>16.6g} {unit:<8}"
        + (f" raw {raw[name]:.6g} {unit}" if name in raw else "")
        for name, unit in units.items()
    ]
    lines.append(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, metavar="N",
                        help="record reference digests for seeds 0..N-1 and exit")
    args = parser.parse_args(argv)
    if args.record is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("CONSTBANDIT_SEED", None)  # inputs come from --seed alone
    try:
        cb = load_package()
    except ImportError as exc:
        print(f"error: cannot import constbandit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import plans

    if args.workload is not None and args.workload not in plans.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {plans.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.record is not None:
        record(cb, args.record, [args.workload] if args.workload else plans.WORKLOADS)
        return 0

    plan = plans.build(args.workload, args.seed)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    correct, runner, metrics, provenance = measure(cb, plan, args.seconds, bool(args.trace), reference)
    for line in report_lines(plan, bool(args.trace), correct, runner, metrics, provenance):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
