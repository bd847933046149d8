"""The benchmark's workloads: CLI argv per seed, units of work, known answers.

Each checker takes the exit code and the captured report bytes of one
invocation and returns a list of mismatches; an empty list means the report
carries the known answer.  The answers are restated here from the theorem
and the (2,3)/(3,3)/(3,4) rule spaces, not read back from gsverify.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import product
from typing import Callable

# per-check counts of `lemmas --suite all` at (n=2, m=3)
SUITE_CHECKS = {
    "L1": 735,
    "L3": 64,
    "L4": 64,
    "L5": 708_588,
    "C1": 735,
    "C2": 10_000,
    "R1": 19_683,
    "R2": 64,
    "THM": 19_683,
}
# THM cascade at (2,3): total, unanimous, efficient, strategy-proof, dictatorial
SUITE_THM_CASCADE = {
    "total": 19_683,
    "unanimous": 729,
    "efficient": 64,
    "strategy_proof": 2,
    "dictatorial": 2,
}
CASCADE_KEYS = ("total", "unanimous", "efficient", "strategy_proof", "dictatorial")
CENSUS_SAMPLES = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # seed -> gsverify argv
    work: int  # units of work per invocation, for throughput_per_s
    work_unit: str
    check: Callable[[int, bytes, int], list[str]]  # (exit code, report, seed)
    reference_steps: int = 400_000  # reference.py run around each invocation: about 0.3 s


def dictator_tables(n: int, m: int) -> list[list[int]]:
    """Outcome tables of the n dictatorships over tops codes, agent 0 most significant."""
    tops = list(product(range(m), repeat=n))
    return [[t[i] for t in tops] for i in range(n)]


def dictator_rule_strings(n: int, m: int) -> list[str]:
    return [
        f"TOPS:n={n},m={m}:" + "".join(map(str, table))
        for table in dictator_tables(n, m)
    ]


def dictator_rule_codes(n: int, m: int) -> list[int]:
    codes = []
    for table in dictator_tables(n, m):
        code = 0
        for digit in table:
            code = code * m + digit
        codes.append(code)
    return codes


def _load_json(code: int, report: bytes) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}, expected 0"]
    try:
        return json.loads(report), []
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]


def check_suite(code: int, report: bytes, seed: int) -> list[str]:
    payload, errors = _load_json(code, report)
    if payload is None:
        return errors
    if payload.get("passed") is not True:
        errors.append("suite did not pass")
    results = payload.get("results", [])
    ids = [r.get("lemma") for r in results]
    if ids != list(SUITE_CHECKS):
        errors.append(f"checks ran {ids}, expected {list(SUITE_CHECKS)}")
    for result in results:
        lemma = result.get("lemma")
        if result.get("passed") is not True:
            errors.append(f"{lemma} did not pass")
        if result.get("checks") != SUITE_CHECKS.get(lemma):
            errors.append(
                f"{lemma} checks {result.get('checks')}, expected {SUITE_CHECKS.get(lemma)}"
            )
        if lemma == "THM":
            cascade = result.get("detail", {}).get("counts")
            if cascade != SUITE_THM_CASCADE:
                errors.append(f"THM cascade {cascade}, expected {SUITE_THM_CASCADE}")
    return errors


def check_census_sampled(code: int, report: bytes, seed: int) -> list[str]:
    payload, errors = _load_json(code, report)
    if payload is None:
        return errors
    for key, want in (("mode", "sampled"), ("samples", CENSUS_SAMPLES), ("seed", seed)):
        if payload.get(key) != want:
            errors.append(f"{key} is {payload.get(key)!r}, expected {want!r}")
    counts = payload.get("counts", {})
    cascade = [counts.get(k) for k in CASCADE_KEYS]
    if cascade[0] != CENSUS_SAMPLES:
        errors.append(f"total {cascade[0]}, expected {CENSUS_SAMPLES}")
    if not all(isinstance(c, int) for c in cascade) or cascade != sorted(cascade, reverse=True):
        errors.append(f"cascade {cascade} is not nested")
    survivors = payload.get("strategy_proof_rules", [])
    dictators = set(dictator_rule_strings(3, 3))
    strays = [r for r in survivors if r not in dictators]
    if strays:
        errors.append(f"strategy-proof survivors that are not dictator tables: {strays}")
    if len(survivors) != counts.get("strategy_proof"):
        errors.append("strategy_proof_rules disagrees with the strategy_proof count")
    if payload.get("sp_equals_dictators") is not True:
        errors.append("sp_equals_dictators is not true")
    return errors


def check_inspect(code: int, report: bytes, seed: int) -> list[str]:
    payload, errors = _load_json(code, report)
    if payload is None:
        return errors
    want = {
        "rule": "DICT:0",
        "unanimous": True,
        "tops_only": True,
        "efficient": True,
        "strategy_proof": True,
        "dictator": 0,
    }
    for key, value in want.items():
        if payload.get(key) != value:
            errors.append(f"{key} is {payload.get(key)!r}, expected {value!r}")
    witnesses = payload.get("witnesses")
    if not isinstance(witnesses, dict) or any(v is not None for v in witnesses.values()):
        errors.append(f"witnesses {witnesses!r}, expected all null")
    return errors


def check_census_rows(code: int, report: bytes, seed: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows = list(csv.reader(io.StringIO(report.decode("utf-8"))))
    header = ["rule_code", "unanimous", "efficient", "strategy_proof",
              "dictatorial", "m_count", "d_count"]
    if not rows or rows[0] != header:
        return [f"csv header {rows[:1]}, expected {header}"]
    body = rows[1:]
    errors = []
    if [r[0] for r in body] != [str(c) for c in range(3**9)]:
        errors.append(f"{len(body)} rows, expected rule codes 0..{3**9 - 1} in order")
    column = {name: i for i, name in enumerate(header)}

    def codes_where(name: str) -> list[int]:
        return [int(r[0]) for r in body if r[column[name]] == "true"]

    for name, want in (("unanimous", 729), ("efficient", 64)):
        got = len(codes_where(name))
        if got != want:
            errors.append(f"{got} {name} rows, expected {want}")
    dictators = sorted(dictator_rule_codes(2, 3))
    constants = [x * (3**9 - 1) // 2 for x in range(3)]  # all-x digit strings
    unanimous = set(codes_where("unanimous"))
    strategy_proof = codes_where("strategy_proof")
    want = {
        "dictatorial": (codes_where("dictatorial"), dictators),
        "strategy-proof": (strategy_proof, sorted(dictators + constants)),
        "unanimous strategy-proof": ([c for c in strategy_proof if c in unanimous], dictators),
    }
    for name, (got, expected) in want.items():
        if got != expected:
            errors.append(f"{name} rows {got}, expected {expected}")
    return errors


def suite_workload(name: str, workers: int) -> Workload:
    return Workload(
        name=name,
        argv=lambda seed: [
            "lemmas", "--suite", "all", "--agents", "2", "--alts", "3",
            "--workers", str(workers), "--seed", str(seed),
        ],
        work=sum(SUITE_CHECKS.values()),
        work_unit="checks",
        check=check_suite,
        reference_steps=1_600_000,  # about 1.2 s beside 5-7 s invocations
    )


WORKLOADS = {
    w.name: w
    for w in (
        suite_workload("suite-2x3", workers=1),
        suite_workload("suite-2x3-pool", workers=2),
        Workload(
            name="census-3x3-sampled",
            argv=lambda seed: [
                "census", "--agents", "3", "--alts", "3", "--mode", "sampled",
                "--samples", str(CENSUS_SAMPLES), "--seed", str(seed),
            ],
            work=CENSUS_SAMPLES,
            work_unit="rules",
            check=check_census_sampled,
        ),
        Workload(
            name="inspect-3x4",
            argv=lambda seed: [
                "inspect", "--rule", "DICT:0", "--agents", "3", "--alts", "4",
                "--seed", str(seed),
            ],
            work=24**3,
            work_unit="profiles",
            check=check_inspect,
        ),
        Workload(
            name="census-2x3-csv",
            argv=lambda seed: [
                "census", "--agents", "2", "--alts", "3", "--format", "csv",
                "--verbose", "--seed", str(seed),
            ],
            work=3**9,
            work_unit="rules",
            check=check_census_rows,
        ),
    )
}
