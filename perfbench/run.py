"""gsverify benchmark: time-to-verdict of CLI invocations, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out PATH]

Closed loop, one client: each invocation is a fresh interpreter running
``perfbench/launch.py``, and the next starts only after the previous one
has exited and been reaped.  Between invocations it runs a fixed reference
program, so that each invocation's time can be given as a multiple of the
host's speed around it.  With ``--trace 0`` the run times invocations for S
seconds and reports the end-to-end metrics: the median of those multiples,
which the gate uses, and the raw times beside them (``DESIGN.md`` says
why).  With ``--trace 1`` it does the same untraced loop, then traced
invocations, and reports the per-layer metrics.  Every report is checked against the
workload's known answer, and all reports of one seed in a run must be
byte-identical.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its sample count and the stamp that says what was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from workloads import SUITE_CHECKS, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
LAUNCH = [sys.executable, str(BENCH_DIR / "launch.py")]
REFERENCE = [sys.executable, str(BENCH_DIR / "reference.py")]

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
LEMMA_SPANS = "constructions.verify_lemma"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    report: bytes
    stderr: bytes


class Runner:
    """Launches invocations one at a time and keeps every run inside its budget."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        WORK_DIR.mkdir(exist_ok=True)
        self.out_path = WORK_DIR / "stdout"
        self.err_path = WORK_DIR / "stderr"
        self.peak_path = WORK_DIR / "peak"
        self.reference_answers: dict[int, bytes] = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def invoke(self, opts: list[str], argv: list[str]) -> Invocation:
        """Run launch.py once; wall and rusage cover the child and its reaped workers."""
        peak = ["--peak", str(self.peak_path)]
        return self.spawn(LAUNCH + peak + opts + ["--"] + argv)

    def reference(self, steps: int) -> Invocation:
        """Run the reference program once; a wrong checksum ends the run."""
        if steps not in self.reference_answers:
            self.reference_answers[steps] = str(reference.work(steps)).encode()
        inv = self.spawn(REFERENCE + [str(steps)])
        if inv.code != 0 or inv.report.strip() != self.reference_answers[steps]:
            raise SystemExit(f"reference program failed:\n{inv.stderr.decode(errors='replace')}")
        return inv

    def spawn(self, cmd: list[str]) -> Invocation:
        self.peak_path.unlink(missing_ok=True)  # only launch.py writes it
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=int(self.peak_path.read_text()) / 1024 if self.peak_path.exists() else 0.0,
            code=proc.returncode,
            report=self.out_path.read_bytes(),
            stderr=self.err_path.read_bytes(),
        )


def with_workers(argv: list[str], workers: int) -> list[str]:
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return argv


def stamp(workload: str, seed: int, seconds: int, trace: int, argvs: dict) -> dict:
    """What was measured, where: results with different stamps are not comparable."""
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "argv": argvs,
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return None
    q = 100 * (n - 10) // n
    rank = math.ceil(q * n / 100)
    return q, sorted(values)[rank - 1]


def timing(unit: str, values: list[float]) -> dict:
    entry = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    pct = tail(values)
    if pct:
        entry[f"p{pct[0]}"] = pct[1]
    return entry


class Run:
    """One benchmark run of one workload: the loop, the checks, the metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: int, runner: Runner):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.runner = runner
        self.argv = workload.argv(seed)
        self.attempted = 0
        self.failed = 0
        self.first_report: bytes | None = None
        self.identical = True
        self.errors: list[str] = []

    def call(self, opts: list[str], argv: list[str]) -> Invocation:
        inv = self.runner.invoke(opts, argv)
        self.attempted += 1
        errors = self.workload.check(inv.code, inv.report, self.seed)
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            if inv.stderr:
                self.errors.append(inv.stderr.decode(errors="replace").strip()[-2000:])
        if self.first_report is None:
            self.first_report = inv.report
        elif inv.report != self.first_report:
            self.identical = False
        return inv

    def loop(self) -> tuple[list[Invocation], list[Invocation], list[float]]:
        """Untraced invocations for the run's seconds (at least one); the
        reference runs around them, one before the first and one after each;
        and a set-up probe after each.

        The loop stops once another invocation like the last would end
        nearer the deadline by overrunning it than by stopping short of it.
        """
        steps = self.workload.reference_steps
        invocations, references, setup = [], [self.runner.reference(steps)], []
        deadline = perf_counter() + self.seconds
        while True:
            start = perf_counter()
            inv = self.call([], self.argv)
            inv.report = b""  # checked already; keep the run's memory flat
            invocations.append(inv)
            references.append(self.runner.reference(steps))
            setup.append(self.setup_probe())
            step = perf_counter() - start
            if perf_counter() + step / 2 >= deadline or self.runner.remaining() <= 0:
                return invocations, references, setup

    def setup_probe(self) -> float:
        inv = self.runner.invoke(["--setup"], [])
        if inv.code != 0:
            raise SystemExit(f"set-up probe failed:\n{inv.stderr.decode(errors='replace')}")
        return inv.wall_s

    def end_to_end(self) -> tuple[dict, dict]:
        """(gated metrics, raw times shown beside them) of one untraced loop."""
        setup = [self.setup_probe() for _ in range(SETUP_PROBES)]
        invocations, references, loop_setup = self.loop()
        setup += loop_setup
        walls = [i.wall_s for i in invocations]
        cpus = [i.cpu_s for i in invocations]
        n = len(walls)
        work = self.workload.work
        per = f"{work} {self.workload.work_unit} per invocation"
        gated = {
            "verdict_ref_ratio": timing("ratio", relative(walls, [r.wall_s for r in references])),
            "cpu_ref_ratio": timing("ratio", relative(cpus, [r.cpu_s for r in references])),
            "peak_rss_mb": timing("MB", [i.rss_mb for i in invocations]),
            "setup_s": timing("s", setup),
        }
        raw = {
            "verdict_s": timing("s", walls),
            "cpu_s": timing("s", cpus),
            "throughput_per_s": {"value": work / statistics.median(walls), "unit": "1/s",
                                 "n": n, "work": per},
            "verdict_best_s": {"value": min(walls), "unit": "s", "n": n},
            "cpu_best_s": {"value": min(cpus), "unit": "s", "n": n},
            "reference_s": timing("s", [r.wall_s for r in references]),
        }
        return gated, raw

    def traced(self, opts: list[str], argv: list[str], label: str) -> tuple[dict, Invocation]:
        path = WORK_DIR / f"trace-{self.workload.name}-{label}.json"
        path.unlink(missing_ok=True)
        inv = self.call(opts + ["--trace", str(path)], argv)
        if not path.exists():  # the invocation died; it already counts as failed
            return {"fields": [], "spans": [], "counts": {}}, inv
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), inv

    def per_layer(self) -> dict:
        base_wall = min(i.wall_s for i in self.loop()[0])
        if "--workers" in self.argv:  # a suite: the pool from the parent, then all spans serially
            lemma_trace, lemma_inv = self.traced(
                ["--only", LEMMA_SPANS], with_workers(self.argv, 2), "lemmas-w2"
            )
            lemma_report = lemma_inv.report
            serial = with_workers(self.argv, 1)
            if serial != self.argv:
                base_wall = self.call([], serial).wall_s
            full_trace, full_inv = self.traced([], serial, "w1")
        else:
            full_trace, full_inv = self.traced([], self.argv, "full")
            lemma_trace, lemma_report = full_trace, b""
        metrics = layer_metrics(Trace(full_trace), Trace(lemma_trace), lemma_report)
        metrics["cli.output_bytes"] = (len(full_inv.report), "bytes")
        metrics["trace_overhead_s"] = (full_inv.wall_s - base_wall, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


class Trace:
    """Per-name totals over one traced invocation's spans and counters."""

    def __init__(self, data: dict):
        fields = data["fields"]
        self.spans = [dict(zip(fields, row)) for row in data["spans"]]
        self.counts = data["counts"]
        self.names = {s["id"]: s["name"] for s in self.spans}
        self.by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            self.by_name.setdefault(span["name"], []).append(span)

    def of(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.of(name)) + self.counts.get(name, 0)

    def total(self, name: str, field: str) -> float:
        return sum(s[field] for s in self.of(name))

    def under(self, name: str, parent: str) -> int:
        return sum(1 for s in self.of(name) if self.names.get(s["parent"]) == parent)

    def module_calls(self, prefix: str) -> int:
        spans = sum(1 for s in self.spans if s["name"].startswith(prefix))
        counted = sum(v for k, v in self.counts.items()
                      if k.startswith(prefix) and not k.endswith(".items"))
        return spans + counted


def relative(times: list[float], references: list[float]) -> list[float]:
    """Each time as a multiple of the mean of the reference runs just before and after it."""
    return [t / ((before + after) / 2) for t, before, after in zip(times, references, references[1:])]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(full: Trace, lemmas: Trace, lemma_report: bytes) -> dict:
    """Per-layer metrics as name -> (value, unit); see DESIGN.md for what each should move."""
    m: dict[str, tuple[float, str]] = {}
    m["prefs.enumerate_profiles.profiles"] = (full.counts.get("prefs.enumerate_profiles.items", 0), "count")
    m["prefs.Profile.with_replaced.calls"] = (full.calls("prefs.Profile.with_replaced"), "count")
    fm = "rules.find_manipulation"
    m[f"{fm}.calls"] = (full.calls(fm), "count")
    m[f"{fm}.self_s"] = (full.total(fm, "self_s"), "s")
    m[f"{fm}.witness_ratio"] = (ratio(full.total(fm, "non_null"), full.calls(fm)), "ratio")
    for fn in ("find_efficiency_violation", "find_tops_only_violation", "find_dictator",
               "find_unanimity_violation", "parse_rule"):
        m[f"rules.{fn}.self_s"] = (full.total(f"rules.{fn}", "self_s"), "s")
    m["engine.Space.cold_s"] = (full.total("engine.Space", "busy_s"), "s")
    m["engine.iter_profile_verdicts.self_s"] = (full.total("engine.iter_profile_verdicts", "self_s"), "s")
    m["engine.profile_verdicts.calls"] = (full.calls("engine.profile_verdicts"), "count")
    for fn in ("cells_masks", "table_efficient_definitional"):
        m[f"engine.{fn}.calls"] = (full.calls(f"engine.{fn}"), "count")
        m[f"engine.{fn}.self_s"] = (full.total(f"engine.{fn}", "self_s"), "s")
    for fn in ("table_unanimous", "table_efficient_cells", "increment_digits"):
        m[f"engine.{fn}.calls"] = (full.calls(f"engine.{fn}"), "count")
    checks = {}
    if lemma_report:  # only the suite's; a failed one already counts in `failed`
        try:
            checks = {r["lemma"]: r["checks"] for r in json.loads(lemma_report)["results"]}
        except (ValueError, KeyError, TypeError):
            pass
    for lemma in SUITE_CHECKS:
        spans = [s for s in lemmas.of(LEMMA_SPANS) if s["tag"] == lemma]
        m[f"{LEMMA_SPANS}.{lemma}.s"] = (sum(s["busy_s"] for s in spans), "s")
        m[f"{LEMMA_SPANS}.{lemma}.checks"] = (checks.get(lemma, 0) if spans else 0, "count")
        m[f"{LEMMA_SPANS}.{lemma}.child_cpu_s"] = (sum(s["child_cpu_s"] for s in spans), "s")
    rules = full.total("constructions.census", "items")
    m["constructions.census.self_s"] = (full.total("constructions.census", "self_s"), "s")
    m["constructions.census.rules"] = (rules, "count")
    m["constructions.census.sp_check_ratio"] = (
        ratio(full.under(fm, "constructions.census"), rules), "ratio")
    m["constructions.census_rows.self_s"] = (full.total("constructions.census_rows", "self_s"), "s")
    m["constructions.census_rows.rows"] = (full.total("constructions.census_rows", "items"), "count")
    parse = full.total("cli.build_parser", "busy_s") + full.total("cli.parse_args", "busy_s")
    m["cli.parse_s"] = (parse, "s")
    m["cli.self_s"] = (full.total("cli.run", "self_s"), "s")
    m["classify.calls"] = (full.module_calls("classify."), "count")
    return m


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    runner = Runner(perf_counter())
    warm = runner.invoke(["--setup"], [])  # compiles bytecode, proves the package imports
    if warm.code != 0:
        raise SystemExit(f"gsverify does not import:\n{warm.stderr.decode(errors='replace')}")
    run = Run(WORKLOADS[name], seed, seconds, runner)
    metrics, raw = (run.per_layer(), {}) if trace else run.end_to_end()
    argvs = {"workload": run.argv}
    if trace and "--workers" in run.argv:
        argvs["traced_pool"] = with_workers(run.argv, 2)
        argvs["traced_serial"] = with_workers(run.argv, 1)
    return {
        "stamp": stamp(name, seed, seconds, trace, argvs),
        "correct": run.failed == 0 and run.identical,
        "attempted": run.attempted,
        "failed": run.failed,
        "byte_identical": run.identical,
        "errors": run.errors[:20],
        "metrics": metrics,
        "raw": raw,
    }


def print_metric(name: str, entry: dict, note: str = "") -> None:
    extra = " ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
    print(f"{name:<48} {entry['value']:.6g} {entry['unit']} {extra} {note}".rstrip())


def print_result(result: dict) -> None:
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for error in result["errors"]:
        print(f"error: {error}")
    for name, entry in result["metrics"].items():
        print_metric(name, entry)
    for name, entry in result["raw"].items():
        print_metric(name, entry, "(raw; not gated)")
    ops = result["attempted"]
    print(f"ops_failed_ratio {ratio(result['failed'], ops):.6g} "
          f"({result['failed']} of {ops} ops failed; byte-identical: {result['byte_identical']})")


def summary(results: list[dict], prefix: bool) -> dict:
    metrics = {}
    for result in results:
        for name, entry in result["metrics"].items():
            key = f"{result['stamp']['workload']}/{name}" if prefix else name
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the stamped results as JSON here")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gsverify" / "cli.py").is_file():
        print(f"error: no gsverify sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace)
        print_result(result)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
