"""Benchmark of the `antipodes` command line, driven in-process.

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from `src/`; a
missing `src/antipodes` is an error (exit 2, no result).  One caller runs
`antipodes.cli.main` in a closed loop: each job starts after the previous
one has returned and its report has been parsed.  Jobs run in whole passes
over the workload's job list.  Every report is checked against the answer
known for its input (see `workloads.py`), and every repeat of a job must
print the same bytes.

Times are host-normalised seconds.  The benchmark shares its CPUs with
other tenants, and their load changes how fast the same job runs by up to
a factor of two within a minute.  So a fixed exact-arithmetic probe runs
between jobs, and each job's wall time is divided by the probe's slowdown
around it: the median probe time within `HostSpeed.MARGIN_S` of the job
over `HostSpeed.REFERENCE_S`, the probe time on an idle host.  A faster
program still reads faster, because the probe is not program code.  The
raw wall-clock figures and the host slowdown are printed on the line
before the result.

`--seconds` is the normalised time to measure: passes run until the next
one would end further from it than stopping, with at least enough passes
for `MIN_JOBS` job samples, and none starts once the wall clock would pass
`WALL_CAP` times `--seconds`.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
With `--trace 1` untraced and traced passes alternate; the last line holds
the per-layer metrics of the traced passes, per pass, plus the tracing
overhead.  The counts a traced pass records must repeat exactly in every
pass and in every traced run of the same workload and seed.

Scratch files go under `.bench_work/` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Enough job samples that the p90 job time has at least ten beyond it.
MIN_JOBS = 100
WALL_CAP = 2.0


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import `antipodes.cli` from this checkout's `src/`, afresh."""
    if not (SRC / "antipodes" / "cli.py").is_file():
        raise ProgramMissing(f"no antipodes package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "antipodes" or n.startswith("antipodes.")]:
        del sys.modules[name]
    cli = importlib.import_module("antipodes.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"antipodes was imported from {cli.__file__}")
    return cli


def _probe():
    """A fixed exact elimination, the kind of work the program's LPs do."""
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 5 + 1) for j in range(6)] for i in range(6)]
    for col in range(6):
        pivot = next(r for r in range(col, 6) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, 6):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]


class HostSpeed:
    """How slow the shared host runs right now, from a fixed probe.

    The probe runs before every job.  A job's time is divided by the
    median probe time around it over `REFERENCE_S`, the probe time on an
    uncontended host, so a neighbour's load on the CPU cancels out.
    """

    REFERENCE_S = 2.8e-4
    MARGIN_S = 0.1

    def __init__(self):
        self.stamps = []
        self.times = []

    def sample(self, repeats: int = 5):
        for _ in range(repeats):
            start = perf_counter()
            _probe()
            self.stamps.append(start)
            self.times.append(perf_counter() - start)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - self.MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + self.MARGIN_S)
        return statistics.median(self.times[lo:hi]) / self.REFERENCE_S

    def scaled(self, start: float, took: float) -> float:
        return took / self.factor(start, start + took)


class Runner:
    """Runs jobs through `cli.main` and checks every answer."""

    def __init__(self):
        self.speed = HostSpeed()
        self.cli = None
        self.outputs = {}
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0

    def run(self, job):
        """Return (start, seconds from call to parsed report, report bytes)."""
        self.attempted += 1
        self.speed.sample()
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(job.argv))
            report = json.loads(out.getvalue())
            if not isinstance(report, dict):
                raise ValueError("the report is not a JSON object")
        except (Exception, SystemExit):
            # In-process, a crash must never read as an exit-1 verdict.
            took = perf_counter() - start
            self._fail(job, "raised\n" + traceback.format_exc())
            return start, took, 0
        took = perf_counter() - start
        text = out.getvalue()
        complaint = job.check(code, report)
        if complaint is None and self.outputs.setdefault(job.name, (code, text)) != (code, text):
            complaint = "output differs from an earlier run of the same job"
        if complaint is None and job.group is not None:
            verdict = job.verdict(report)
            if self.verdicts.setdefault(job.group, verdict) != verdict:
                complaint = f"routes disagree on {job.group}"
        if complaint is not None:
            self._fail(job, complaint)
        return start, took, len(text.encode())

    def _fail(self, job, why):
        self.failed += 1
        print(f"FAILED {job.name}: {why}  argv={list(job.argv)}", file=sys.stderr)

    def run_pass(self, jobs, tracer=None):
        """Run every job once; return (normalised times, wall times, report bytes)."""
        samples, report_bytes = [], 0
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            began, took, size = self.run(job)
            samples.append((began, took))
            report_bytes += size
        self.speed.sample()
        scaled = [self.speed.scaled(began, took) for began, took in samples]
        return scaled, [took for _, took in samples], report_bytes


def setup(runner: Runner, workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs and run one warm-up job."""
    runner.speed.sample()
    start = perf_counter()
    runner.cli = load_cli()
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.generate(workload, seed, workdir)
    prepared = perf_counter() - start
    _, took, _ = runner.run(jobs[0])
    runner.speed.sample()
    return runner.speed.scaled(start, prepared + took), jobs


def keep_going(done_s: float, rounds: int, seconds: float, min_rounds: int, wall_s: float) -> bool:
    """Start another round while that ends nearer to `seconds` than stopping."""
    if wall_s + wall_s / rounds > WALL_CAP * seconds:
        return False
    return rounds < min_rounds or done_s + done_s / rounds / 2 <= seconds


def distribution(times) -> dict:
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[-1],
    }


def end_to_end(runner, jobs, seconds, setup_s, workload, seed):
    times, walls = [], []
    start = perf_counter()
    min_passes = -(-MIN_JOBS // len(jobs))
    while True:
        scaled, wall, report_bytes = runner.run_pass(jobs)
        times += scaled
        walls += wall
        passes = len(times) // len(jobs)
        if not keep_going(sum(times), passes, seconds, min_passes, perf_counter() - start):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    units = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_p90": "s"}
    metrics = {name: (value, units[name]) for name, value in distribution(times).items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    shape = {"passes": passes, "jobs": len(times), "wall": distribution(walls)}
    problems = check_against_earlier("bytes", {"cli.report_bytes": report_bytes}, workload, seed)
    return metrics, shape, problems


def per_layer(runner, jobs, seconds, workload, seed):
    tracer = tracing.Tracer()
    plain = traced = 0.0
    rounds = 0
    counts, totals, problems = None, {}, []
    start = perf_counter()
    while True:
        plain += sum(runner.run_pass(jobs)[0])
        tracer.install()
        tracer.spans = [] if rounds == 0 else None
        try:
            scaled, wall, report_bytes = runner.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        traced += sum(scaled)
        if rounds == 0:
            write_spans(tracer.spans, workload, seed)
            tracer.spans = None
        rounds += 1
        seen = dict(tracer.counters(), **{"cli.report_bytes": report_bytes})
        if counts is None:
            counts = seen
        elif seen != counts:
            problems.append(f"pass {rounds} counts differ: {diff(counts, seen)}")
        # Self times are wall times too; normalise them like the pass.
        slowdown = sum(wall) / sum(scaled)
        for key, value in tracer.times().items():
            totals[key] = totals.get(key, 0.0) + value / slowdown
        tracer.reset()
        if not keep_going(plain + traced, rounds, seconds, 1, perf_counter() - start):
            break
    quiet = [label for label in tracing.EXERCISED[workload] if counts[f"{label}.calls"] == 0]
    if quiet:
        problems.append(f"boundaries never called: {sorted(quiet)}")
    problems += check_against_earlier("counts", counts, workload, seed)
    times = {key: value / rounds for key, value in totals.items()}
    metrics = layer_metrics(counts, times)
    metrics["trace.overhead_frac"] = (traced / plain - 1, "fraction")
    return metrics, {"passes": rounds, "jobs": 2 * rounds * len(jobs)}, problems


def layer_metrics(counts, times) -> dict:
    def calls(label):
        return counts[f"{label}.calls"]

    def self_s(label):
        return times[f"{label}.self_s"]

    def inclusive_s(label):
        return times[f"{label}.inclusive_s"]

    def share(part, whole):
        return part / whole if whole else 0.0

    solves = calls("exact_lp.solve")
    joints = calls("antipodality.joint_direct") + calls("antipodality.joint_shrunk")
    rank_s = inclusive_s("antipodality.rank") + inclusive_s("antipodality.strict")
    out = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.report_bytes": (counts["cli.report_bytes"], "bytes"),
        "exact_lp.rows_mean": (share(counts["exact_lp.rows"], solves), "rows"),
        "exact_lp.vars_mean": (share(counts["exact_lp.vars"], solves), "vars"),
        "exact_lp.infeasible_frac": (share(counts["exact_lp.infeasible"], solves), "fraction"),
        "antipodality.subsets": (counts["antipodality.subsets"], "count"),
        "antipodality.subsets_per_s": (share(counts["antipodality.subsets"], rank_s), "1/s"),
        "antipodality.lp_per_joint": (share(counts["exact_lp.solve_in_joint"], joints), "lp/joint"),
        "hashcodes.nodes": (counts["hashcodes.nodes"], "count"),
        "hashcodes.nodes_per_s": (
            share(counts["hashcodes.nodes"], inclusive_s("hashcodes.max_code")), "1/s"),
    }
    for label in COUNTED:
        out[f"{label}.calls"] = (calls(label), "count")
    for label in SELF_TIMED:
        out[f"{label}.self_s"] = (self_s(label), "s")
    whole = inclusive_s("cli.main")
    for layer in tracing.LAYERS:
        part = sum(self_s(label) for label in tracing.BOUNDARIES if label.startswith(layer + "."))
        out[f"{layer}.share"] = (share(part, whole), "fraction")
    return out


COUNTED = (
    "rationals.ratio", "exact_lp.solve", "exact_lp.solve_strict", "geometry.volume",
    "geometry.member", "construction.projection_certificate", "discrimination.min_error",
)
SELF_TIMED = (
    "rationals.ratio", "exact_lp.solve", "exact_lp.solve_strict", "exact_lp.check",
    "antipodality.joint_direct", "antipodality.joint_shrunk", "antipodality.verify_cert",
    "geometry.volume", "geometry.member", "geometry.affine_rank", "geometry.load_point_set",
    "hashcodes.max_code", "hashcodes.is_perfect", "hashcodes.greedy_code",
    "hashcodes.random_code", "construction.product_construct",
    "construction.projection_certificate", "construction.volume_inequality_check",
    "discrimination.min_error",
)


def diff(before: dict, after: dict) -> dict:
    return {k: (before.get(k), after.get(k)) for k in after if before.get(k) != after.get(k)}


def write_spans(spans, workload, seed):
    path = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, job, start, end in spans:
            fh.write(json.dumps(
                {"id": span_id, "parent": parent, "name": name, "job": job,
                 "start": start, "end": end}) + "\n")


def code_digest() -> str:
    """Identifies the program and benchmark sources that produced a count."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_against_earlier(kind, counts, workload, seed):
    """Compare exact counts with an earlier run of this seed and code."""
    path = WORK / "counts" / f"{workload}-seed{seed}-{kind}-{code_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return [f"counts differ from an earlier run: {diff(earlier, counts)}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            took, jobs = setup(runner, args.workload, args.seed, workdir)
            setups.append(took)
        if args.trace:
            metrics, shape, problems = per_layer(
                runner, jobs, args.seconds, args.workload, args.seed)
        else:
            metrics, shape, problems = end_to_end(
                runner, jobs, args.seconds, statistics.median(setups), args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"GATE {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": type(sys.modules["antipodes.rationals"].ZERO).__name__,
        "cpu_count": os.cpu_count(),
        "setup_runs_s": setups,
        "host_slowdown": statistics.median(runner.speed.times) / HostSpeed.REFERENCE_S,
        **shape,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
