"""Command-line interface: exit codes, formats, and byte determinism."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

import _definitional
from gsverify import (
    ConstantRule,
    DictatorRule,
    TopsTableRule,
    _engine,
    classify_all,
    cli,
    constructions,
    parse_rule,
)
from gsverify._engine import space
from gsverify.cli import run
from test_engine import (
    DICTATORIAL,
    MANIPULABLE,
    all_tables,
    table_dictator,
    table_efficient_definitional,
    table_manipulation,
    table_profile_verdicts,
    table_unanimous,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


@cache
def definitional_rows(n, m):
    """(rule code, unanimous, efficient, strategy-proof, dictatorial, |M_f|,
    |D_f|) per tops-table rule, ascending code, each from a per-rule
    reference: |M_f| and |D_f| count the per-profile verdicts."""
    sp = space(n, m)
    rows = []
    for code, table in enumerate(all_tables(n, m)):
        verdicts = table_profile_verdicts(table, sp)
        rows.append((
            code,
            table_unanimous(table, sp),
            table_efficient_definitional(table, sp),
            table_manipulation(table, sp) is None,
            table_dictator(table, sp) is not None,
            verdicts.count(MANIPULABLE),
            verdicts.count(DICTATORIAL),
        ))
    return rows


def csv_rendering(rows):
    """The per-rule csv report of ``rows``, one ``csv.writer`` row per rule."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("rule_code", "unanimous", "efficient", "strategy_proof", "dictatorial",
                     "m_count", "d_count"))
    for row in rows:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


class TestCensusCommand:
    def test_counts_and_rule_strings(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "census", "--agents", "2", "--alts", "3", "--workers", "1"
        )
        assert code == 0
        assert payload["schema_version"] == "1"
        assert payload["counts"] == {
            "total": 19683,
            "unanimous": 729,
            "efficient": 64,
            "strategy_proof": 2,
            "dictatorial": 2,
        }
        assert payload["sp_equals_dictators"] is True
        for text in payload["strategy_proof_rules"]:
            assert parse_rule(text, 2, 3).to_string() == text

    def test_csv_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--format", "csv",
            "--workers", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("agents,alternatives,mode")
        assert lines[1] == "2,2,exhaustive,,,16,4,4,4,2,false"

    def test_verbose_csv_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--format", "csv",
            "--verbose", "--workers", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "rule_code,unanimous,efficient,strategy_proof,dictatorial,m_count,d_count"
        )
        assert len(lines) == 17
        # rule 0001 is the majority table: unanimous, efficient, strategy-proof,
        # not dictatorial, with every profile dictatorial for it
        assert lines[2] == "1,true,true,true,false,0,4"

    @pytest.mark.parametrize("block_rules", [7, constructions._BLOCK_RULES])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
    def test_verbose_csv_equals_per_rule_rendering(self, capsys, monkeypatch, n, m, block_rules):
        # every filter subset, with block boundaries inside the stream or not
        monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
        # a memo holding every block, so each subset's scan computes no column twice
        monkeypatch.setattr(_engine, "COLUMN_MEMO", _engine.ColumnMemo(1 << 26))
        names = constructions.FILTER_NAMES
        for k in range(len(names) + 1):
            for subset in combinations(names, k):
                argv = ["census", "--agents", str(n), "--alts", str(m), "--format", "csv",
                        "--verbose"]
                for name in subset:
                    argv += ["--filter", name]
                code, out, _ = invoke(capsys, *argv)
                assert code == 0
                rows = [
                    row for row in definitional_rows(n, m)
                    if all(row[1 + names.index(name)] for name in subset)
                ]
                assert out == csv_rendering(rows), subset

    def test_verbose_out_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "rules.csv"
        argv = ("census", "--agents", "2", "--alts", "3", "--format", "csv", "--verbose",
                "--filter", "unanimous")
        _, stdout, _ = invoke(capsys, *argv)
        code, out, _ = invoke(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == stdout.encode()

    def test_verbose_requires_csv(self, capsys):
        code, _, err = invoke(capsys, "census", "--verbose", "--workers", "1")
        assert code == 2
        assert "csv" in err

    def test_verbose_rejects_sampled_mode(self, capsys):
        code, out, err = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--format", "csv",
            "--verbose", "--mode", "sampled", "--samples", "3", "--seed", "9",
        )
        assert code == 2
        assert out == ""
        assert "exhaustive only" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = invoke(
            capsys, "census", "--agents", "2", "--alts", "4", "--mode", "exhaustive",
            "--workers", "1",
        )
        assert code == 2
        assert "4294967296" in err

    def test_text_format(self, capsys):
        code, out, _ = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--format", "text",
            "--workers", "1",
        )
        assert code == 0
        assert "strategy_proof: 4" in out


class TestClassifyCommand:
    def test_dictator_counts(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "classify", "--rule", "DICT:0", "--agents", "2", "--alts", "3"
        )
        assert code == 0
        assert payload["m_count"] == 0
        assert payload["d_count"] == 36
        assert payload["unanimous"] is True
        assert payload["examples"]["manipulable"] is None
        assert payload["examples"]["dictatorial"]["profile"] == "a,b,c|a,b,c"

    def test_sets_hex(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "classify", "--rule", "DICT:0", "--agents", "2", "--alts", "3",
            "--sets",
        )
        assert code == 0
        assert int(payload["d_set_hex"], 16).bit_count() == 36
        assert int(payload["m_set_hex"], 16) == 0

    def test_manipulable_example_witness(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "classify", "--rule", "TOPS:n=2,m=3:000011222",
            "--agents", "2", "--alts", "3", "--method", "scan",
        )
        assert code == 0
        assert payload["m_count"] > 0
        witness = payload["examples"]["manipulable"]["witness"]
        assert set(witness) == {
            "profile", "agent", "misreport", "sincere_outcome", "improved_outcome",
        }

    @pytest.mark.parametrize("method", ["cells", "scan"])
    def test_examples_equal_the_first_profile_search(self, method):
        # the lowest bits of the verdict sets against the oracle's walk over
        # the profiles in code order, witness for witness
        rng = random.Random(20281)
        rules = [TopsTableRule(n, 2, t) for n in (2, 3) for t in all_tables(n, 2)]
        rules += [TopsTableRule(2, 3, tuple(rng.randrange(3) for _ in range(9)))
                  for _ in range(60)]
        rules += [DictatorRule(3, 3, 1), ConstantRule(3, 3, 2),
                  TopsTableRule(3, 3, tuple(rng.randrange(3) for _ in range(27)))]
        for rule in rules:
            summary = classify_all(rule, materialize_sets=True, method=method)
            manipulable, dictatorial = _definitional.classification_examples(rule)
            expected = {
                "manipulable": manipulable and {
                    "profile": manipulable[0].to_text(),
                    "witness": cli._witness_payload(manipulable[1]),
                },
                "dictatorial": dictatorial and {"profile": dictatorial.to_text()},
            }
            assert cli._classification_examples(rule, summary) == expected, rule

    def test_non_tops_only_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--rule", "BORDALEX", "--agents", "2", "--alts", "3"
        )
        assert code == 2
        assert "tops-only" in err

    def test_malformed_rule_reports_position(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--rule", "TOPS:n=2,m=3:00011122x",
            "--agents", "2", "--alts", "3",
        )
        assert code == 2
        assert "position 21" in err


class TestLemmasCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = invoke(
            capsys, "lemmas", "--suite", "all", "--agents", "2", "--alts", "3",
            "--format", "text", "--workers", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        assert [line.split()[0] for line in lines] == [
            "L1", "L3", "L4", "L5", "C1", "C2", "R1", "R2", "THM",
        ]
        assert all(" PASS " in line for line in lines)

    def test_theorem_control_fails_at_m2(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "lemmas", "THM", "--alts", "2", "--workers", "1"
        )
        assert code == 1
        assert payload["passed"] is False
        result = payload["results"][0]
        assert result["counterexample"]["equals"] == "MAJLEX"

    def test_unknown_id(self, capsys):
        code, _, err = invoke(capsys, "lemmas", "L2", "--workers", "1")
        assert code == 2
        assert "unknown check id" in err

    def test_csv_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "lemmas", "L4", "R2", "--agents", "2", "--alts", "3",
            "--format", "csv", "--workers", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("lemma,")
        assert lines[1].startswith("L4,2,3,exhaustive")
        assert lines[2].startswith("R2,2,3,exhaustive")


class TestInspectCommand:
    def test_borda_report(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "inspect", "--rule", "BORDALEX", "--agents", "2", "--alts", "3"
        )
        assert code == 0
        assert payload["unanimous"] is True
        assert payload["tops_only"] is False
        assert payload["efficient"] is True
        assert payload["strategy_proof"] is False
        assert payload["dictator"] is None
        assert payload["witnesses"]["manipulation"]["profile"]
        assert payload["witnesses"]["tops_only"] is not None
        assert parse_rule(payload["rule"], 2, 3).to_string() == payload["rule"]

    def test_majority_report(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "inspect", "--rule", "MAJLEX", "--agents", "3", "--alts", "2"
        )
        assert code == 0
        assert payload["strategy_proof"] is True
        assert payload["dictator"] is None


class TestCounterexampleCommand:
    def test_certificate(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "counterexample", "--agents", "3", "--alts", "2"
        )
        assert code == 0
        assert payload["certificate"]["valid"] is True
        assert payload["rule"] == "MAJLEX"

    def test_rejects_many_alternatives(self, capsys):
        code, _, err = invoke(capsys, "counterexample", "--agents", "3", "--alts", "4")
        assert code == 2


class TestDeterminismAndOutput:
    def test_sampled_census_bytes(self, capsys):
        argv = (
            "census", "--agents", "3", "--alts", "3", "--mode", "sampled",
            "--samples", "1500", "--seed", "99", "--workers", "1",
        )
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_sampled_lemma_bytes(self, capsys):
        argv = (
            "lemmas", "C2", "--agents", "2", "--alts", "3", "--samples", "500",
            "--seed", "7", "--workers", "1",
        )
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--out", str(target),
            "--workers", "1",
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["counts"]["total"] == 16

    def test_usage_error_exit_code(self, capsys):
        assert run(["no-such-command"]) == 2


class TestGoldenReports:
    """Report bytes pinned by SHA-256; any change to them is a format change."""

    @pytest.mark.parametrize("argv,digest", [
        (
            ("lemmas", "--suite", "all", "--agents", "2", "--alts", "3", "--workers", "1"),
            "069e1df96407bb4b661bd534840b07a1faaefe5df4fcdeeaeeddb8bdfe32b568",
        ),
        (
            ("census", "--agents", "2", "--alts", "3", "--format", "csv", "--verbose"),
            "5576e95fab07250cdd041f8cc09d177a81f45ec62d416fce21094b0a5cab7211",
        ),
        (
            ("census", "--agents", "3", "--alts", "3", "--mode", "sampled",
             "--samples", "20000", "--seed", "1", "--workers", "1"),
            "a332a4d52788986b8fb2ab52dec8d1b3db8c17f694ccad8c211d99f4e1212419",
        ),
        (
            ("lemmas", "L1", "L3", "L5", "C1", "R1", "THM", "--agents", "3", "--alts", "3",
             "--mode", "sampled", "--samples", "300", "--seed", "5", "--workers", "1"),
            "462eaae02073cb90a52f61daffa84c3705af3ffd6b9ffd7d410858a1591aa81f",
        ),
        (
            ("census", "--agents", "2", "--alts", "3", "--workers", "1", "--format", "csv"),
            "0b535ba92601c760f80ce9261a019b22dc027f6ff99b91c807f4cad5046148f4",
        ),
        (
            ("lemmas", "--suite", "all", "--agents", "2", "--alts", "3", "--workers", "1",
             "--format", "csv"),
            "44bf5983dba45f73e261bd08341b85d634ce15a63d3a713d4b778bb9093bb14d",
        ),
        (
            ("classify", "--rule", "DICT:1", "--agents", "3", "--alts", "3", "--sets",
             "--format", "csv"),
            "c89612256c7200e3fd4f0b997769cfdf5a49ebf2078850ceea8e784495b66fa0",
        ),
        (
            ("inspect", "--rule", "BORDALEX", "--agents", "2", "--alts", "3", "--format", "csv"),
            "a9f9abde1596b079340f4fd08663aec2fbda2d2e943d9646fa882bc5b0701aea",
        ),
        (
            ("counterexample", "--agents", "3", "--format", "csv"),
            "1622dbf8f64fe5b70bbbe429f092f975875b821a14614ca2c4e50f5553f024ee",
        ),
        (
            ("lemmas", "L4", "L5", "R1", "R2", "C2", "--agents", "3", "--alts", "3",
             "--mode", "sampled", "--samples", "200", "--seed", "3", "--workers", "1"),
            "bbcb64e7ff9786511c7ec5e8ec27f74e847bf9550226cf2e7d2d397697821231",
        ),
        (
            ("census", "--agents", "3", "--alts", "2", "--format", "csv", "--verbose",
             "--filter", "unanimous"),
            "20a6dc9c96a514bf0f4c8e19a93b0d6e89fefb9ef697b299de2d609827aa5ec8",
        ),
        # --workers only parses: the same bytes without it and at 2
        (
            ("lemmas", "--suite", "all", "--agents", "2", "--alts", "3"),
            "069e1df96407bb4b661bd534840b07a1faaefe5df4fcdeeaeeddb8bdfe32b568",
        ),
        (
            ("lemmas", "--suite", "all", "--agents", "2", "--alts", "3", "--workers", "2"),
            "069e1df96407bb4b661bd534840b07a1faaefe5df4fcdeeaeeddb8bdfe32b568",
        ),
        (
            ("census", "--agents", "2", "--alts", "3", "--format", "csv"),
            "0b535ba92601c760f80ce9261a019b22dc027f6ff99b91c807f4cad5046148f4",
        ),
        (
            ("census", "--agents", "2", "--alts", "3", "--workers", "2", "--format", "csv"),
            "0b535ba92601c760f80ce9261a019b22dc027f6ff99b91c807f4cad5046148f4",
        ),
        (
            ("census", "--agents", "3", "--alts", "3", "--mode", "sampled",
             "--samples", "20000", "--seed", "1", "--workers", "2"),
            "a332a4d52788986b8fb2ab52dec8d1b3db8c17f694ccad8c211d99f4e1212419",
        ),
    ])
    def test_report_digest(self, capsys, argv, digest):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # JSON witnesses of the single-rule questions: the csv forms carry none.
    # The FULL table is DICT:0 with profiles 5, 9 and 35 changed, so its
    # tops-only witness sits in cell (a, b) although cell (a, c) differs at a
    # lower profile code.
    @pytest.mark.parametrize("argv,digest", [
        (
            ("inspect", "--rule", "BORDALEX", "--agents", "2", "--alts", "3"),
            "3c44db560f3cdda788dfbd64d292211f982b2955db92b1d0291a760994eb0638",
        ),
        (
            ("inspect", "--rule", "BORDALEX", "--agents", "3", "--alts", "3"),
            "6307ae4f641d8faf8bd1c0018b51d1ce2381f30addf39c790b71481d46d8abf4",
        ),
        (
            ("inspect", "--rule", "FULL:n=2,m=3:000002000200111111111111222222222220"),
            "ecff00f074e94b3f1b731f30a3490b2d8fe237ae6a07fae43cbcf6c75bc68f1d",
        ),
        (
            ("inspect", "--rule", "TOPS:n=2,m=3:000111220"),
            "93e921a7bc7180aa79b3761d1f9609b61d0037af9f5af10129c1cc323b98aa71",
        ),
        (
            ("classify", "--rule", "TOPS:n=2,m=3:000111001", "--method", "cells"),
            "4d820eb4a8823a1a8545b806c9cf644f40d98ade48d6b3457b8a1d3654253921",
        ),
        (
            ("classify", "--rule", "TOPS:n=2,m=3:000111001", "--method", "scan"),
            "a47d9451c89a02b00a6ae74c23b752dcc21691b4b141f2ddb6f1ea0cb6c5cc5e",
        ),
        (
            ("classify", "--rule", "DICT:0", "--agents", "3", "--alts", "3"),
            "6cfe888e77e87523bc454b6db8be0a9716bb09f4cbd171763c800f52a03efd84",
        ),
    ])
    def test_witness_digest(self, capsys, argv, digest):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failing_suite_digest(self, capsys):
        # L4, R2 and THM fail at m=2; the report carries their counterexamples
        code, out, _ = invoke(
            capsys, "lemmas", "--suite", "all", "--agents", "3", "--alts", "2",
            "--workers", "2",
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4fb923c03a931899fa46af5664d243663c799a252af8142e460b7d45e2bc1bf5"
        )


class TestProfileWorkBudget:
    @pytest.mark.parametrize("argv,work", [
        (("inspect", "--rule", "DICT:0", "--agents", "5", "--alts", "6"), 720**5 * 5 * 720),
        (("inspect", "--rule", "DICT:0", "--agents", "4", "--alts", "4"), 24**4 * 4 * 24),
        (("classify", "--rule", "DICT:0", "--agents", "5", "--alts", "4",
          "--method", "scan"), 24**5 * 5 * 24),
    ])
    def test_rejected_up_front(self, capsys, argv, work):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"needs {work} steps" in err
        assert "GSVERIFY_MAX_PROFILE_WORK" in err

    @pytest.mark.parametrize("budget,expected", [("431", 2), ("432", 0)])
    def test_env_sets_the_budget(self, capsys, monkeypatch, budget, expected):
        # (2, 3): 6**2 profiles x 2 agents x 6 misreports = 432
        monkeypatch.setenv("GSVERIFY_MAX_PROFILE_WORK", budget)
        code, _, _ = invoke(
            capsys, "inspect", "--rule", "DICT:0", "--agents", "2", "--alts", "3"
        )
        assert code == expected


class TestSamplesValidation:
    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("command", ["census", "lemmas"])
    def test_non_positive_samples_rejected(self, capsys, command, samples):
        code, out, err = invoke(
            capsys, command, "--agents", "3", "--alts", "3", "--mode", "sampled",
            "--samples", samples, "--workers", "1",
        )
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err

    @pytest.mark.parametrize("command", ["census", "lemmas"])
    def test_samples_rejected_in_exhaustive_mode(self, capsys, command):
        code, out, err = invoke(
            capsys, command, "--agents", "2", "--alts", "3", "--mode", "exhaustive",
            "--samples", "5",
        )
        assert code == 2
        assert out == ""
        assert "exhaustive mode takes no samples" in err


class TestScanOptions:
    # --mode and --samples steer the rule-space scans of census and lemmas,
    # which also keep --workers so that old argv parse; elsewhere they would
    # be ignored, so argparse rejects them
    @pytest.mark.parametrize("argv", [
        ("inspect", "--rule", "DICT:0", "--agents", "2", "--alts", "3",
         "--mode", "sampled", "--samples", "3", "--seed", "9"),
        ("census", "--agents", "2", "--alts", "2", "--format", "csv", "--verbose",
         "--samples", "3"),
        ("classify", "--rule", "DICT:0", "--agents", "2", "--alts", "3",
         "--workers", "3"),
        ("counterexample", "--agents", "3", "--alts", "2", "--mode", "exhaustive"),
    ])
    def test_rejected_where_they_would_not_act(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err

    @pytest.mark.parametrize("argv", [
        ("inspect", "--rule", "DICT:0", "--agents", "2", "--alts", "3"),
        ("classify", "--rule", "DICT:0", "--agents", "2", "--alts", "3"),
        ("counterexample", "--agents", "3", "--alts", "2"),
    ])
    def test_seed_accepted_by_every_command(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--seed", "4")
        assert code == 0
        assert out == invoke(capsys, *argv)[1]

    @pytest.mark.parametrize("command", ["census", "lemmas"])
    def test_workers_below_one_rejected(self, capsys, command):
        code, out, err = invoke(capsys, command, "--agents", "2", "--alts", "2",
                                "--workers", "0")
        assert code == 2
        assert out == ""
        assert "--workers must be at least 1" in err


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["gsverify", "gsverify.cli"])
    def test_python_dash_m(self, module):
        env = src_env()
        done = subprocess.run(
            [sys.executable, "-m", module, "lemmas", "L3", "--format", "text"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("L3 PASS (n=2, m=3, mode=exhaustive")

    def test_a_run_imports_no_heavy_stdlib_module(self):
        # each costs start-up time on every CLI run; modules the interpreter
        # loaded before gsverify (site, .pth files) do not count
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from gsverify.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run(['census', '--agents', '2', '--alts', '3']) == 0\n"
            "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'string'}\n"
            "print(sorted(heavy & (set(sys.modules) - before)))\n"
        )
        env = {**src_env(), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_import_leaves_multiprocessing_out(self):
        # every scan runs in one process: default-flag runs of the suite and
        # of an exhaustive census never pay its import time
        code = (
            "import contextlib, io, sys\n"
            "from gsverify.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run(['lemmas', '--suite', 'all', '--agents', '2', '--alts', '3']) == 0\n"
            "    assert run(['census', '--agents', '4', '--alts', '2']) == 0\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_only_a_lemma_run_loads_the_runners(self):
        # the benchmark's tracer reads the six layer modules from sys.modules
        # right after importing gsverify.cli, and patches every name bound
        # to a layer function; the lemma runners load on the first
        # verify_lemma call
        code = (
            "import contextlib, io, json, sys\n"
            "import gsverify.cli\n"
            "from gsverify import cli, rules\n"
            "def runners_loaded(argv=None):\n"
            "    if argv:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.run(argv) == 0\n"
            "    return 'gsverify._lemmas' in sys.modules\n"
            "layers = ('prefs', 'rules', '_engine', 'classify', 'constructions', 'cli')\n"
            "print(json.dumps({\n"
            "    'layers': [f'gsverify.{name}' in sys.modules for name in layers],\n"
            "    'bound': cli.find_manipulation is rules.find_manipulation,\n"
            "    'import': runners_loaded(),\n"
            "    'census': runners_loaded(['census', '--agents', '3', '--alts', '3',\n"
            "                              '--mode', 'sampled', '--samples', '500']),\n"
            "    'csv': runners_loaded(['census', '--format', 'csv', '--verbose']),\n"
            "    'lemmas': runners_loaded(['lemmas', 'L5', '--workers', '1']),\n"
            "}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "layers": [True] * 6, "bound": True, "import": False,
            "census": False, "csv": False, "lemmas": True,
        }

    def test_import_leaves_typing_out(self):
        # annotations are never evaluated, so nothing needs typing at run
        # time; -S keeps out the site-packages .pth files that may load it
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, gsverify.cli; print('typing' in sys.modules)"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
