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
from itertools import chain, combinations
from pathlib import Path

import pytest

import _definitional
from gsverify import (
    ConstantRule,
    DictatorRule,
    TopsTableRule,
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

    def test_verbose_csv_flag_columns_are_the_filters_in_key_order(self, capsys):
        # a census_rows key holds bit i for FILTER_NAMES[i]; the header names
        # the flag columns from the same tuple
        code, out, _ = invoke(
            capsys, "census", "--agents", "2", "--alts", "2", "--format", "csv", "--verbose",
        )
        assert code == 0
        names = constructions.FILTER_NAMES
        columns = out.split("\n", 1)[0].split(",")
        assert columns[0] == "rule_code" and columns[len(names) + 1 :] == ["m_count", "d_count"]
        assert columns[1 : len(names) + 1] == [name.replace("-", "_") for name in names]

    @pytest.mark.parametrize("block_rules", [7, constructions._BLOCK_RULES])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
    def test_verbose_csv_equals_per_rule_rendering(self, capsys, monkeypatch, n, m, block_rules):
        # every filter subset, with block boundaries inside the stream or not
        monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
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

    def test_verbose_budget_exceeded_with_the_exhaustive_message(self, capsys):
        # the per-rule census checks its budget where every exhaustive run does
        code, out, err = invoke(
            capsys, "census", "--format", "csv", "--verbose", "--agents", "2", "--alts", "4"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: exhaustive census at (n=2, m=4) needs 4294967296 rule checks")

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

    def test_non_ascii_index_reports_position(self, capsys):
        code, out, err = invoke(capsys, "inspect", "--rule", "DICT:\u00b2")
        assert (code, out) == (2, "")
        assert "(at position 5)" in err

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

    @pytest.mark.parametrize("ids", [("L1",), ("l1", "C2")])
    def test_suite_with_ids_exits_2(self, capsys, tmp_path, ids):
        # both choose the checks: neither may be dropped silently
        out_path = tmp_path / "report.json"
        code, out, err = invoke(capsys, "lemmas", "--suite", "all", *ids, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --suite all and the check ids {' '.join(ids)} both choose the checks; "
            "give one or the other\n"
        )
        assert not out_path.exists()

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

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        code, out, err = invoke(
            capsys, "census", "--agents", "2", "--alts", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        reason = "No such file or directory" if where == "missing directory" else "Is a directory"
        assert err == f"error: cannot write the report to {target}: {reason}\n"

    def test_unwritable_out_is_rejected_before_the_run(self, capsys, monkeypatch, tmp_path):
        def never(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "_execute", never)
        target = tmp_path / "missing" / "x.json"
        code, out, err = invoke(
            capsys, "lemmas", "--suite", "all", "--agents", "3", "--alts", "3",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write the report to {target}: No such file or directory\n"

    def test_an_existing_out_file_keeps_its_bytes_after_an_error(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_bytes(b"earlier report\n")
        code, _, err = invoke(capsys, "census", "--samples", "0", "--out", str(target))
        assert code == 2
        assert err == "error: --samples must be at least 1\n"
        assert target.read_bytes() == b"earlier report\n"

    def test_an_out_file_made_by_the_probe_is_removed_after_an_error(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = invoke(capsys, "census", "--samples", "0", "--out", str(target))
        assert code == 2
        assert not target.exists()

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
        # 16 cells: k takes 5 carry planes, so a class key spans two 8-plane groups
        (
            ("census", "--agents", "4", "--alts", "2", "--format", "csv", "--verbose"),
            "7ee932b67658f6ffdad797a47a2beb56e1ce34c1769ac17bc9d31046c4033301",
        ),
        (
            ("census", "--agents", "4", "--alts", "2", "--format", "csv", "--verbose",
             "--filter", "unanimous"),
            "49fe5e41ddd55ea8091b4c6077f4a1b54d888a982ec89ab538ce1df346c5eb48",
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
        # the strategy-proofness stage asked about the filter's survivors:
        # census_rows under --filter, and the cascade after a prefilter
        (
            ("census", "--agents", "2", "--alts", "3", "--format", "csv", "--verbose",
             "--filter", "strategy-proof", "--filter", "dictatorial"),
            "d9826819205f0c3395871a2fe6c7037b8a5573691bf11957e23c9bb3a452e675",
        ),
        (
            ("census", "--agents", "2", "--alts", "3", "--filter", "strategy-proof"),
            "b15ad158225f0bb0745e5f3ceb1804d64f3a30e6431a4a968280711942ec478d",
        ),
        (
            ("census", "--agents", "4", "--alts", "2", "--filter", "strategy-proof",
             "--format", "csv"),
            "7efe91e8f29553d83dfeebccd77def81fd490078cd1c9a841b0102021e118ff0",
        ),
    ])
    def test_report_digest(self, capsys, argv, digest):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the text renderer of every command; the (3,2) suite fails L4 and R2
    @pytest.mark.parametrize("argv,exit_code,digest", [
        (
            ("lemmas", "--suite", "all", "--agents", "2", "--alts", "3", "--format", "text"),
            0,
            "82ef093f4ddd3e9259d7a54a2d7e4ca80e96029be913d02d96b6597fb6745cfd",
        ),
        (
            ("lemmas", "--suite", "all", "--agents", "3", "--alts", "2", "--format", "text"),
            1,
            "b1743d67531c3f5413c979269f7c8e961f1e428ab6029100ebbd6f306a93f3a5",
        ),
        (
            ("census", "--agents", "4", "--alts", "2", "--format", "text"),
            0,
            "0c78a825718647e5afcc7496703dfbc47bf61ac50231f2a95ed95f8c22a27cc8",
        ),
        (
            ("classify", "--rule", "DICT:1", "--agents", "3", "--alts", "3", "--sets",
             "--format", "text"),
            0,
            "a44214629bb9b8c268940cdcb2e70575f4c37f027e9bcebf1c3a82702871d31c",
        ),
        (
            ("inspect", "--rule", "BORDALEX", "--agents", "2", "--alts", "3", "--format", "text"),
            0,
            "273a9132922e07226d3bdd36504407117dd93a894573c571816a6d0fb80c2421",
        ),
        (
            ("counterexample", "--agents", "3", "--format", "text"),
            0,
            "b97fc3d3a5b6c1062d2be0bddc6219cc6a71bafe5b71a7316429786eb30863cd",
        ),
    ])
    def test_text_report_digest(self, capsys, argv, exit_code, digest):
        code, out, _ = invoke(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_report_digest_of_the_largest_kept_suite(self, capsys):
        # the default-budget suite with the largest streams its run keeps
        # (65536 tops tables); at m = 2 the theorem does not hold, so L4, R2
        # and THM fail (exit 1)
        code, out, _ = invoke(capsys, "lemmas", "--suite", "all", "--agents", "4", "--alts", "2")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4020e8c47f08078965226c21286d907d6bbeaa32f1a68d60a5555a1e90608263"
        )

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

    @pytest.mark.parametrize("argv,draws", [
        (("census", "--mode", "sampled", "--samples", "100000000000"), 100_000_000_000),
        (("lemmas", "C2", "--samples", "100001"), 200_002),
        (("lemmas", "--suite", "all", "--agents", "3", "--samples", "200001"), 200_001),
        # only C2, the sixth check, draws more rules than the budget
        (("lemmas", "--suite", "all", "--agents", "3", "--samples", "150000"), 300_000),
    ])
    def test_samples_past_the_rule_budget_rejected(self, capsys, argv, draws):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"draws {draws} rules, over the budget of 200000" in err
        assert "GSVERIFY_MAX_RULE_SPACE" in err

    @pytest.mark.parametrize("command,samples,expected", [
        ("census", "40", 0), ("census", "41", 2), ("lemmas", "20", 0), ("lemmas", "21", 2),
    ])
    def test_env_sets_the_sample_budget(self, capsys, monkeypatch, command, samples, expected):
        # C2 draws two rules per sample
        monkeypatch.setenv("GSVERIFY_MAX_RULE_SPACE", "40")
        ids = ("C2",) if command == "lemmas" else ()
        code, _, _ = invoke(capsys, command, *ids, "--samples", samples)
        assert code == expected


class TestSettings:
    @pytest.mark.parametrize("setting", [
        "GSVERIFY_MAX_RULE_SPACE", "GSVERIFY_MAX_ALTS", "GSVERIFY_MAX_AGENTS",
        "GSVERIFY_MAX_PROFILE_WORK",
    ])
    @pytest.mark.parametrize("command", ["census", "lemmas"])
    def test_setting_not_a_whole_number_exits_2(self, capsys, monkeypatch, setting, command):
        monkeypatch.setenv(setting, "abc")
        code, out, err = invoke(capsys, command, "--agents", "2", "--alts", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: {setting} must be a whole number, got 'abc'\n"

    def test_setting_of_another_scripts_digit_exits_2(self, capsys, monkeypatch):
        # int() reads the Arabic-Indic six as 6
        monkeypatch.setenv("GSVERIFY_MAX_ALTS", "\u0666")
        code, out, err = invoke(capsys, "census", "--agents", "2", "--alts", "2")
        assert (code, out) == (2, "")
        assert err == "error: GSVERIFY_MAX_ALTS must be a whole number, got '\u0666'\n"

    @pytest.mark.parametrize("alts", ["5000", "1000000"])
    def test_over_cap_alternatives_rejected_without_m_factorial(self, alts):
        done = subprocess.run(
            [sys.executable, "-m", "gsverify", "census", "--agents", "2", "--alts", alts],
            capture_output=True, text=True, env=src_env(), timeout=5,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"error: m={alts} exceeds the alternative cap 6; set GSVERIFY_MAX_ALTS to override\n"
        )

    @pytest.mark.parametrize("form", ["FULL", "TOPS"])
    def test_over_cap_table_rule_rejected_before_its_length(self, form):
        # the table length of the declared (n, m) takes seconds to compute
        # and cannot be printed, so the caps are checked before it
        n = "10000000"
        done = subprocess.run(
            [sys.executable, "-m", "gsverify", "inspect", "--agents", n,
             "--rule", f"{form}:n={n},m=3:0"],
            capture_output=True, text=True, env=src_env(), timeout=5,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"error: n={n} exceeds the agent cap 5; set GSVERIFY_MAX_AGENTS to override\n"
        )


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


# the names ``gsverify`` exports, by the submodule that defines each
PUBLIC_NAMES = {
    "errors": [
        "BudgetExceededError", "CapExceededError", "DimensionMismatchError",
        "GsverifyError", "NotTopsOnlyError", "RuleParseError", "UnknownLemmaError",
    ],
    "prefs": [
        "Alternative", "Preference", "PreferenceDomain", "Profile", "TopsProfile",
        "alternative_index", "alternative_name", "decode_preference", "encode_preference",
        "enumerate_preferences", "enumerate_profiles", "is_minimally_rich",
        "preferences_with_top", "profile_from_code", "satisfies_property_t_star",
    ],
    "rules": [
        "BordaLexRule", "ConstantRule", "DictatorRule", "FullTableRule", "MajorityLexRule",
        "ManipulationWitness", "Rule", "TopsTableRule", "as_full_table", "as_tops_table",
        "efficient_via_tops", "extensionally_equal", "find_dictator",
        "find_efficiency_violation", "find_manipulation", "find_tops_only_violation",
        "find_unanimity_violation", "is_efficient", "is_strategy_proof", "is_tops_only",
        "is_unanimous", "parse_rule",
    ],
    "classify": [
        "ClassificationSummary", "ProfileClassification", "Verdict",
        "at_least_as_dictatorial", "at_least_as_manipulable", "bitset_codes",
        "bitset_to_hex", "check_duality", "classify_all", "classify_profile",
        "dictatorial_profile_count", "find_dictatorial_violation",
        "find_profile_manipulation", "hex_to_bitset", "is_dictatorial_profile",
        "is_manipulable_profile", "manipulable_profile_count",
        "remark_dictatorial_maximal", "remark_strategyproof_minimal",
    ],
    "constructions": [
        "CensusReport", "CounterexampleCertificate", "VerificationReport", "census",
        "coalesce", "enumerate_tops_only_rules", "majority_counterexample", "restrict",
        "rule_space_size", "sample_efficient_tops_tables", "verify_lemma",
    ],
}


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

    def test_a_command_compiles_only_the_layers_it_runs(self):
        # pytest loads the object layer early, so only a fresh process shows
        # it left out: rules and classify stay LazyLoader modules, never
        # compiled, until a command reads one of their attributes
        code = (
            "import contextlib, io, json, sys\n"
            "from importlib.util import _LazyModule\n"
            "from gsverify import cli\n"
            "def lazy(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0\n"
            "    return [type(sys.modules[f'gsverify.{name}']) is _LazyModule\n"
            "            for name in ('rules', 'classify')]\n"
            "print(json.dumps([\n"
            "    lazy(['census', '--agents', '3', '--alts', '3', '--mode', 'sampled',\n"
            "          '--samples', '500', '--seed', '1']),\n"
            "    lazy(['census', '--format', 'csv', '--verbose']),\n"
            "    lazy(['lemmas', '--suite', 'all']),\n"
            "    lazy(['inspect', '--rule', 'DICT:0']),\n"
            "    lazy(['classify', '--rule', 'DICT:0']),\n"
            "]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # (rules lazy, classify lazy) after each command in turn; the suite's
        # closed-form checks load rules
        assert json.loads(done.stdout.splitlines()[-1]) == [
            [True, True], [True, True], [False, True], [False, True], [False, False],
        ]

    def test_every_public_name_resolves_to_its_submodule_object(self):
        # the package's names resolve lazily; each must be its submodule's own
        # object through attribute access and through a star import alike
        code = (
            "import json, sys\n"
            "from importlib import import_module\n"
            "import gsverify\n"
            "homes = json.loads(sys.argv[1])\n"
            "star = {}\n"
            "exec('from gsverify import *', star)\n"
            "wrong = []\n"
            "for home, names in homes.items():\n"
            "    module = import_module(f'gsverify.{home}')\n"
            "    wrong += [home] if gsverify.__dict__[home] is not module else []\n"
            "    wrong += [name for name in names\n"
            "              if not getattr(gsverify, name) is star[name] is vars(module)[name]]\n"
            "try:\n"
            "    gsverify.no_such_name\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "exported = sorted(k for k in star if not k.startswith('__'))\n"
            "print(json.dumps([wrong, missing, exported]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(PUBLIC_NAMES)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        wrong, missing, exported = json.loads(done.stdout.splitlines()[-1])
        assert wrong == []
        assert missing == "module 'gsverify' has no attribute 'no_such_name'"
        assert exported == sorted([*PUBLIC_NAMES, *chain(*PUBLIC_NAMES.values())])

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
