"""Self-test of the benchmark's own parts; exits 1 on the first failed check.

    python3 perfbench/selftest.py

1. Each known-answer checker accepts a good report and rejects doctored
   ones (a count off by one, exit code 1, a wrong verdict).
2. A traced invocation leaves every gsverify module and class attribute as
   it found it, prints the same report as an untraced one, and its self
   times add up to the root span's busy time.
3. Each timed invocation is divided by the mean of the reference runs just
   before and after it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def suite_report() -> dict:
    results = [
        {"lemma": lemma, "passed": True, "checks": checks, "detail": {}}
        for lemma, checks in workloads.SUITE_CHECKS.items()
    ]
    results[-1]["detail"] = {"counts": dict(workloads.SUITE_THM_CASCADE)}
    return {"command": "lemmas", "passed": True, "results": results}


def inspect_report() -> dict:
    return {
        "rule": "DICT:0", "unanimous": True, "tops_only": True, "efficient": True,
        "strategy_proof": True, "dictator": 0,
        "witnesses": {"unanimity": None, "tops_only": None, "efficiency": None,
                      "manipulation": None},
    }


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def test_checkers(csv_report: bytes, census_report: bytes) -> None:
    suite = suite_report()
    check(not workloads.check_suite(0, encode(suite), 1), "suite checker accepts the known answer")
    doctored = copy.deepcopy(suite)
    doctored["results"][-1]["detail"]["counts"]["strategy_proof"] += 1
    check(bool(workloads.check_suite(0, encode(doctored), 1)), "suite checker rejects THM counts off by one")
    doctored = copy.deepcopy(suite)
    doctored["results"][3]["checks"] -= 1
    check(bool(workloads.check_suite(0, encode(doctored), 1)), "suite checker rejects L5 checks off by one")
    check(bool(workloads.check_suite(1, encode(suite), 1)), "suite checker rejects exit 1")

    inspect = inspect_report()
    check(not workloads.check_inspect(0, encode(inspect), 1), "inspect checker accepts the known answer")
    inspect["dictator"] = 1
    check(bool(workloads.check_inspect(0, encode(inspect), 1)), "inspect checker rejects a wrong dictator")
    inspect = inspect_report()
    inspect["witnesses"]["manipulation"] = {"agent": 0}
    check(bool(workloads.check_inspect(0, encode(inspect), 1)), "inspect checker rejects a witness")

    check(not workloads.check_census_rows(0, csv_report, 1), "csv checker accepts the real report")
    lines = csv_report.decode().splitlines(keepends=True)
    row = lines[1].split(",")
    row[1] = "true" if row[1] == "false" else "false"
    doctored_csv = "".join(lines[:1] + [",".join(row)] + lines[2:]).encode()
    check(bool(workloads.check_census_rows(0, doctored_csv, 1)), "csv checker rejects one flipped unanimity cell")
    check(bool(workloads.check_census_rows(0, b"".join(csv_report.splitlines(True)[:-1]), 1)),
          "csv checker rejects a missing row")
    check(bool(workloads.check_census_rows(1, csv_report, 1)), "csv checker rejects exit 1")

    census = json.loads(census_report)
    check(not workloads.check_census_sampled(0, census_report, 7), "census checker accepts the real report")
    doctored = copy.deepcopy(census)
    doctored["counts"]["total"] -= 1
    check(bool(workloads.check_census_sampled(0, encode(doctored), 7)), "census checker rejects total off by one")
    doctored = copy.deepcopy(census)
    doctored["strategy_proof_rules"] = ["TOPS:n=3,m=3:" + "0" * 27]
    doctored["counts"]["strategy_proof"] = 1
    check(bool(workloads.check_census_sampled(0, encode(doctored), 7)),
          "census checker rejects a non-dictator strategy-proof survivor")
    check(bool(workloads.check_census_sampled(0, census_report, 8)), "census checker rejects another seed")


def snapshot() -> dict:
    """Every attribute of every gsverify module and of the classes they define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "gsverify" or name.startswith("gsverify."):
            state[name] = dict(vars(module))
            for attr, obj in vars(module).items():
                if isinstance(obj, type) and obj.__module__ == name:
                    state[f"{name}.{attr}"] = dict(vars(obj))
    return state


def same(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        before[k].keys() == after[k].keys()
        and all(before[k][a] is after[k][a] for a in before[k])
        for k in before
    )


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    from gsverify import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode()


def traced(argv: list[str]) -> tuple[int, bytes, Tracer, bool]:
    from gsverify import cli, rules

    original = rules.find_manipulation
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = cli.find_manipulation is not original and rules.find_manipulation is not original
        code, report = run_cli(argv)
    finally:
        tracer.uninstall()
    return code, report, tracer, wrapped


def test_tracer(argv: list[str], plain: bytes) -> None:
    before = snapshot()
    code, report, tracer, wrapped = traced(argv)
    check(wrapped, f"tracer wraps names in every module that bound them ({argv[0]})")
    check(same(before, snapshot()), f"every gsverify attribute is restored after a traced {argv[0]}")
    check(code == 0 and report == plain, f"traced {argv[0]} prints the untraced report")
    spans = tracer.spans
    roots = [s for s in spans if s[1] == 0]
    check([s[2] for s in roots] == ["cli.run"], f"cli.run is the only root span ({argv[0]})")
    self_total = sum(s[6] for s in spans)
    check(abs(self_total - roots[0][5]) < 1e-6 * len(spans) + 1e-9,
          f"self times of {len(spans)} spans add up to the root's busy time ({argv[0]})")


def test_relative() -> None:
    got = run.relative([2.0, 6.0], [1.0, 3.0, 1.0])
    check(got == [1.0, 3.0], "each time is divided by the mean of the reference runs around it")


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    csv_argv = workloads.WORKLOADS["census-2x3-csv"].argv(1)
    census_argv = workloads.WORKLOADS["census-3x3-sampled"].argv(7)
    _, csv_report = run_cli(csv_argv)
    _, census_report = run_cli(census_argv)
    test_checkers(csv_report, census_report)
    test_tracer(csv_argv, csv_report)
    inspect_argv = ["inspect", "--rule", "DICT:1", "--agents", "2", "--alts", "3"]
    test_tracer(inspect_argv, run_cli(inspect_argv)[1])
    lemmas_argv = ["lemmas", "L1", "L4", "THM", "--agents", "2", "--alts", "3", "--workers", "1"]
    test_tracer(lemmas_argv, run_cli(lemmas_argv)[1])
    test_relative()
    print("selftest passed")


if __name__ == "__main__":
    main()
