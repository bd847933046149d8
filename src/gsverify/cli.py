"""Command-line front end: classify, census, lemmas, inspect, counterexample.

JSON (the default) is the stable machine format; text is for humans and csv
for spreadsheets.  Output for a fixed invocation (including seed) is byte
deterministic: keys are sorted, iteration orders are canonical, and wall
times never enter the rendered report.  Exit codes: 0 success, 1 a
verification check failed (the counterexample is embedded in the report),
2 usage or configuration error.
"""

from __future__ import annotations

# The package's modules come before the standard library's: without a
# bytecode cache each is compiled here, and compiling them before argparse,
# csv and json are loaded keeps the run's peak memory lower.  The object
# layer, ``rules`` and ``classify``, is read at call time: a census never
# compiles it, and ``lemmas`` never compiles ``classify``.
from . import _engine, constructions, rules
from . import classify as classify_mod
from .errors import GsverifyError
from .prefs import Profile, alternative_name, profile_from_code

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

SCHEMA_VERSION = "1"

_LEMMA_CHOICES = tuple(constructions.LEMMA_DESCRIPTIONS)

def __getattr__(name: str):
    # perfbench's self-test reads ``cli.find_manipulation``, once an imported
    # name: it resolves to ``rules``' attribute at the read (PEP 562), so a
    # wrapper put on ``rules.find_manipulation`` is what it gives
    if name == "find_manipulation":
        return rules.find_manipulation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--agents", type=int, default=2, help="agent count n (default 2)")
    common.add_argument("--alts", type=int, default=3, help="alternative count m (default 3)")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled modes")
    # the rule-space scans: census and lemmas only
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument(
        "--workers", type=int, default=1,
        help="kept so that existing argv still parse; every scan runs in one "
             "process and a value of 1 or more changes nothing",
    )
    scan.add_argument(
        "--mode", choices=("auto", "exhaustive", "sampled"), default="auto",
        help="exhaustive when the rule space fits the budget, else sampled",
    )
    scan.add_argument("--samples", type=int, help="sample size for sampled modes")

    parser = argparse.ArgumentParser(
        prog="gsverify",
        description="Exhaustive verification of social choice axioms at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="count manipulable and dictatorial profiles of one rule")
    p.add_argument("--rule", required=True, help="canonical rule string")
    p.add_argument("--sets", action="store_true",
                   help="include hex bitsets over profile codes")
    p.add_argument("--method", choices=("cells", "scan"), default="cells",
                   help="tops-cell fast path or definitional per-profile scan")

    p = sub.add_parser("census", parents=[common, scan],
                       help="count the axiom cascade over the tops-table rule space")
    p.add_argument("--filter", action="append", default=[],
                   choices=constructions.FILTER_NAMES, dest="filters",
                   help="pre-restrict the enumerated rules (repeatable)")
    p.add_argument("--verbose", action="store_true",
                   help="csv only: one row per rule instead of the summary")

    p = sub.add_parser("lemmas", parents=[common, scan],
                       help="run verification suite checks")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help=f"check ids ({', '.join(_LEMMA_CHOICES)}); default: all")
    p.add_argument("--suite", choices=("all",), help="run every check")

    p = sub.add_parser("inspect", parents=[common],
                       help="evaluate the classic axioms for one rule")
    p.add_argument("--rule", required=True, help="canonical rule string")

    sub.add_parser("counterexample", parents=[common],
                   help="certify the two-alternative majority negative control")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created = False
    if args.out:  # an unwritable path is rejected before the run, no byte of it changed
        try:
            created = not os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            return _cannot_write(args.out, exc)
    code = _report(args)
    if code == 2 and created and os.path.exists(args.out):
        os.remove(args.out)
    return code


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write the report to {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _report(args: argparse.Namespace) -> int:
    """Run the command and write its report; returns the exit code."""
    try:
        payload, failed = _execute(args)
    except (GsverifyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chunks = _render(payload, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.writelines(chunks)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


# ---------------------------------------------------------------------------
# Command execution.
# ---------------------------------------------------------------------------


def _execute(args: argparse.Namespace) -> tuple[dict, bool]:
    handler = {
        "classify": _cmd_classify,
        "census": _cmd_census,
        "lemmas": _cmd_lemmas,
        "inspect": _cmd_inspect,
        "counterexample": _cmd_counterexample,
    }[args.command]
    return handler(args)


def _base_payload(args: argparse.Namespace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "agents": args.agents,
        "alternatives": args.alts,
    }


def _witness_payload(witness: rules.ManipulationWitness) -> dict:
    return {
        "profile": witness.profile.to_text(),
        "agent": witness.agent,
        "misreport": witness.misreport.to_text(),
        "sincere_outcome": alternative_name(witness.sincere_outcome),
        "improved_outcome": alternative_name(witness.improved_outcome),
    }


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, bool]:
    rule = rules.parse_rule(args.rule, args.agents, args.alts)
    summary = classify_mod.classify_all(rule, materialize_sets=True, method=args.method)
    payload = _base_payload(args)
    payload.update(
        {
            "rule": rule.to_string(),
            "method": args.method,
            "unanimous": summary.unanimous,
            "total": summary.total,
            "m_count": summary.m_count,
            "d_count": summary.d_count,
            "examples": _classification_examples(rule, summary),
        }
    )
    if args.sets:
        payload["m_set_hex"] = classify_mod.bitset_to_hex(summary.m_set, summary.total)
        payload["d_set_hex"] = classify_mod.bitset_to_hex(summary.d_set, summary.total)
    return payload, False


def _classification_examples(rule: rules.Rule, summary) -> dict:
    """The lowest-coded manipulable and dictatorial profiles of the summary's
    sets, the first with its manipulation witness."""
    manipulable = dictatorial = None
    if summary.m_set:
        profile = _lowest_profile(rule, summary.m_set)
        witness = classify_mod.find_profile_manipulation(rule, profile)
        manipulable = {"profile": profile.to_text(), "witness": _witness_payload(witness)}
    if summary.d_set:
        dictatorial = {"profile": _lowest_profile(rule, summary.d_set).to_text()}
    return {"manipulable": manipulable, "dictatorial": dictatorial}


def _lowest_profile(rule: rules.Rule, bits: int) -> Profile:
    return profile_from_code(_engine.low_bit(bits), rule.n, rule.m)


def _check_scan_options(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be at least 1")


def _cmd_census(args: argparse.Namespace) -> tuple[dict, bool]:
    _check_scan_options(args)
    if args.verbose and args.format != "csv":
        raise ValueError("--verbose census output is csv only")
    if args.verbose and args.mode == "sampled":
        raise ValueError("--verbose per-rule output is exhaustive only; drop --mode sampled")
    if args.verbose and args.samples is not None:
        raise ValueError("--verbose per-rule output is exhaustive only; drop --samples")
    payload = _base_payload(args)
    if args.verbose:
        # a generator: ``_report`` writes the rows one rule block at a time
        payload["per_rule"] = constructions.census_rows(
            args.agents, args.alts, filters=args.filters
        )
        payload["filters"] = list(constructions._ordered_filters(args.filters))
        return payload, False
    report = constructions.census(
        args.agents,
        args.alts,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        filters=args.filters,
    )
    payload.update(report.to_json_dict())
    return payload, False


def _cmd_lemmas(args: argparse.Namespace) -> tuple[dict, bool]:
    _check_scan_options(args)
    ids = [i.upper() for i in args.ids]
    if args.suite == "all" and ids:
        raise ValueError(
            f"--suite all and the check ids {' '.join(args.ids)} both choose the checks; "
            "give one or the other"
        )
    if not ids:
        ids = list(_LEMMA_CHOICES)
    for lemma in ids:  # every check's inputs are rejected before any check runs
        constructions._resolve_lemma(
            lemma, args.agents, args.alts, args.mode, args.samples, args.seed
        )
    results = []
    scope: dict = {}  # what the checks of this run share
    for lemma in ids:
        report = constructions.verify_lemma(
            lemma,
            args.agents,
            args.alts,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            scope=scope,
        )
        results.append(report.to_json_dict())
    payload = _base_payload(args)
    payload["results"] = results
    payload["passed"] = all(r["passed"] for r in results)
    return payload, not payload["passed"]


def _cmd_inspect(args: argparse.Namespace) -> tuple[dict, bool]:
    rule = rules.parse_rule(args.rule, args.agents, args.alts)
    table = rules.as_full_table(rule)  # built once; every question scans it
    unanimity_violation = rules.find_unanimity_violation(table)
    tops_violation = rules.find_tops_only_violation(table)
    efficiency_violation = rules.find_efficiency_violation(table)
    manipulation = rules.find_manipulation(table)
    payload = _base_payload(args)
    payload.update(
        {
            "rule": rule.to_string(),
            "unanimous": unanimity_violation is None,
            "tops_only": tops_violation is None,
            "efficient": efficiency_violation is None,
            "strategy_proof": manipulation is None,
            "dictator": rules.find_dictator(table),
            "witnesses": {
                "unanimity": _maybe_text(unanimity_violation),
                "tops_only": (
                    None
                    if tops_violation is None
                    else [tops_violation[0].to_text(), tops_violation[1].to_text()]
                ),
                "efficiency": (
                    None
                    if efficiency_violation is None
                    else {
                        "profile": efficiency_violation[0].to_text(),
                        "dominating": alternative_name(efficiency_violation[1]),
                    }
                ),
                "manipulation": (
                    None if manipulation is None else _witness_payload(manipulation)
                ),
            },
        }
    )
    return payload, False


def _maybe_text(profile: Profile | None) -> str | None:
    return None if profile is None else profile.to_text()


def _cmd_counterexample(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.alts not in (2, 3):
        raise ValueError("the negative control is a 2-alternative rule")
    certificate = constructions.majority_counterexample(args.agents)
    payload = _base_payload(args)
    payload["alternatives"] = 2
    payload["rule"] = certificate.rule.to_string()
    payload["certificate"] = certificate.to_json_dict()
    return payload, not certificate.valid


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _render(payload: dict, fmt: str) -> Iterable[str]:
    """The report as the strings to write in turn: the per-rule csv a rule
    block at a time as ``census_rows`` yields it, any other report whole."""
    if "per_rule" in payload:
        return _per_rule_csv(payload["agents"], payload["alternatives"], payload["per_rule"])
    if fmt == "json":
        return [json.dumps(payload, sort_keys=True, indent=2) + "\n"]
    if fmt == "csv":
        return [_render_csv(payload)]
    return [_render_text(payload)]


def _bool(value: bool) -> str:
    return "true" if value else "false"


# csv columns per command, read from the row dicts of ``_csv_rows``; a column
# missing from the rows (classify without --sets) is left out
_CSV_COLUMNS = {
    "census": ("agents", "alternatives", "mode", "samples", "seed",
               *constructions.CENSUS_STAGES, "sp_equals_dictators"),
    "lemmas": ("lemma", "agents", "alternatives", "mode", "samples", "seed",
               "passed", "checks"),
    "classify": ("rule", "agents", "alternatives", "unanimous", "total", "m_count",
                 "d_count", "m_set_hex", "d_set_hex"),
    "inspect": ("rule", "agents", "alternatives", "unanimous", "tops_only",
                "efficient", "strategy_proof", "dictator"),
    "counterexample": ("rule", "agents", "alternatives", "unanimous", "strategy_proof",
                       "tops_only", "efficient", "dictator", "valid"),
}
# nested payload dicts whose keys join the top-level ones in the csv row
_CSV_NESTED = {"census": "counts", "counterexample": "certificate"}
_PER_RULE_HEADER = "rule_code,%s,m_count,d_count\n" % ",".join(
    name.replace("-", "_") for name in constructions.FILTER_NAMES)


def _csv_rows(payload: dict) -> list[dict]:
    command = payload["command"]
    if command == "lemmas":
        return payload["results"]
    if command in _CSV_NESTED:
        return [{**payload, **payload[_CSV_NESTED[command]]}]
    return [payload]


def _per_rule_csv(n: int, m: int, records: Iterable[tuple]) -> Iterator[str]:
    """The per-rule csv, one format call per ``census_rows`` record through a
    table from class key (bit i for ``FILTER_NAMES[i]``, k above) to row suffix."""
    sp, width = _engine.space(n, m), len(constructions.FILTER_NAMES)
    flags = [",".join(_bool(f >> i & 1) for i in range(width)) for f in range(1 << width)]
    m_counts = [k * sp.cell_profile_count for k in range(sp.tops_count + 1)]
    suffixes = [f",{f},{c},{sp.profile_count - c}\n" for c in m_counts for f in flags]
    yield _PER_RULE_HEADER
    for codes, keys in records:
        rows = zip(codes, map(suffixes.__getitem__, keys))
        yield ("%d%s" * len(keys)) % tuple(chain.from_iterable(rows))


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = _csv_rows(payload)
    columns = [c for c in _CSV_COLUMNS[payload["command"]] if c in rows[0]]
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [_bool(row[c]) if isinstance(row[c], bool) else row[c] for c in columns]
        )
    return buf.getvalue()


def _render_text(payload: dict) -> str:
    command = payload["command"]
    lines: list[str] = []
    if command == "lemmas":
        for result in payload["results"]:
            status = "PASS" if result["passed"] else "FAIL"
            line = (
                f"{result['lemma']} {status} "
                f"(n={result['agents']}, m={result['alternatives']}, "
                f"mode={result['mode']}, checks={result['checks']})"
            )
            if result["counterexample"] is not None:
                line += f" counterexample={json.dumps(result['counterexample'], sort_keys=True)}"
            lines.append(line)
    elif command == "census":
        counts = payload["counts"]
        lines.append(
            f"census n={payload['agents']} m={payload['alternatives']} "
            f"mode={payload['mode']}"
        )
        for key in constructions.CENSUS_STAGES:
            lines.append(f"  {key}: {counts[key]}")
        lines.append(f"  strategy_proof_rules: {', '.join(payload['strategy_proof_rules']) or '-'}")
        lines.append(f"  sp_equals_dictators: {_bool(payload['sp_equals_dictators'])}")
    elif command == "classify":
        lines.append(f"rule {payload['rule']}: unanimous={_bool(payload['unanimous'])}")
        lines.append(
            f"  manipulable={payload['m_count']} dictatorial={payload['d_count']} "
            f"of {payload['total']} profiles"
        )
    elif command == "inspect":
        lines.append(f"rule {payload['rule']}:")
        for key in ("unanimous", "tops_only", "efficient", "strategy_proof"):
            lines.append(f"  {key}: {_bool(payload[key])}")
        lines.append(f"  dictator: {payload['dictator']}")
    else:  # counterexample
        cert = payload["certificate"]
        lines.append(f"rule {payload['rule']} at n={payload['agents']}, m=2:")
        for key in ("unanimous", "strategy_proof", "tops_only", "efficient"):
            lines.append(f"  {key}: {_bool(cert[key])}")
        lines.append(f"  dictator: {cert['dictator']}")
        lines.append(f"  valid: {_bool(cert['valid'])}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
