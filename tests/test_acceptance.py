"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
"""

import json
import time

import _definitional
from gsverify import (
    BordaLexRule,
    ConstantRule,
    DictatorRule,
    PreferenceDomain,
    Preference,
    census,
    coalesce,
    extensionally_equal,
    find_efficiency_violation,
    find_dictator,
    find_manipulation,
    find_tops_only_violation,
    is_minimally_rich,
    majority_counterexample,
    parse_rule,
    restrict,
    sample_efficient_tops_tables,
    satisfies_property_t_star,
    verify_lemma,
)
from gsverify.cli import run


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_theorem_census_at_desk_scale():
    start = time.perf_counter()
    result = census(2, 3, workers=1)
    elapsed = time.perf_counter() - start
    assert (result.total, result.unanimous, result.efficient) == (19683, 729, 64)
    assert result.strategy_proof == 2
    assert result.dictatorial == 2
    assert result.sp_equals_dictators
    survivors = [parse_rule(s, 2, 3) for s in result.strategy_proof_rules]
    assert [find_dictator(r) for r in survivors] == [0, 1]
    assert extensionally_equal(survivors[0], DictatorRule(2, 3, 0))
    assert extensionally_equal(survivors[1], DictatorRule(2, 3, 1))
    assert elapsed < 10.0
    report(1, f"census 19683/729/64/2/2, survivors are the dictators ({elapsed:.2f}s)")


def test_criterion_2_partition_of_every_profile():
    start = time.perf_counter()
    result = verify_lemma("L5", 2, 3, mode="exhaustive", workers=1)
    elapsed = time.perf_counter() - start
    assert result.passed
    assert result.checks == 19683 * 36
    assert result.counterexample is None
    assert elapsed < 120.0
    report(2, f"{result.checks} rule/profile pairs, zero partition violations ({elapsed:.1f}s)")


def test_criterion_3_efficient_rules_select_tops():
    result = verify_lemma("L3", 2, 3, mode="exhaustive")
    assert result.passed
    assert result.detail["efficient_rules"] == 64
    report(3, "all 64 efficient tops-table rules select an agent's top everywhere")


def test_criterion_4_full_dictatorial_set_means_dictatorship():
    result = verify_lemma("L4", 2, 3, mode="exhaustive")
    assert result.passed
    assert result.checks == 64
    assert result.detail["dictators"] == 2
    report(4, "of 64 unanimous efficient rules, exactly the 2 dictatorships have all profiles dictatorial")


def test_criterion_5_strategy_proof_unanimous_rules_are_efficient():
    for m in (2, 3):
        l1 = verify_lemma("L1", 2, m, mode="exhaustive")
        c1 = verify_lemma("C1", 2, m, mode="exhaustive")
        assert l1.passed and c1.passed
    borda = BordaLexRule(2, 3)
    witness = find_manipulation(borda)
    assert witness is not None and witness.is_valid(borda)
    assert witness == _definitional.find_manipulation(borda)
    assert find_tops_only_violation(borda) is not None
    report(5, "no strategy-proof unanimous inefficient rule at m in {2,3}; Borda flagged manipulable with a validated witness")


def test_criterion_6_duality_of_the_orders():
    exhaustive = verify_lemma("C2", 2, 2, mode="exhaustive")
    assert exhaustive.passed
    assert exhaustive.checks == 16 * 16
    sampled = verify_lemma("C2", 2, 3, mode="sampled", samples=10_000, seed=2026)
    assert sampled.passed
    assert sampled.checks == 10_000
    report(6, "duality holds on all 256 pairs at m=2 and 10000 seeded pairs at m=3")


def test_criterion_7_two_alternatives_are_not_enough(capsys):
    certificate = majority_counterexample(3)
    assert certificate.valid
    assert certificate.dictator is None

    exit_code = run(["lemmas", "THM", "--agents", "3", "--alts", "2", "--workers", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    counterexample = payload["results"][0]["counterexample"]
    assert counterexample["equals"] == "MAJLEX"
    assert counterexample["certificate"]["dictator"] is None

    exit_code = run(["lemmas", "THM", "--alts", "2", "--workers", "1"])
    capsys.readouterr()
    assert exit_code == 1
    report(7, "majority at m=2 certified as a strategy-proof unanimous non-dictatorship; THM run exits 1 with it")


def test_criterion_8_domain_conditions():
    for m in (3, 4):
        universal = PreferenceDomain.universal(m)
        assert is_minimally_rich(universal)
        assert satisfies_property_t_star(universal)
    singleton = PreferenceDomain(frozenset({Preference((0, 1, 2))}))
    assert not is_minimally_rich(singleton)
    report(8, "universal domain passes both conditions at m in {3,4}; singleton fails minimal richness")


def test_criterion_9_construction_fidelity():
    assert extensionally_equal(coalesce(DictatorRule(3, 3, 0)), DictatorRule(2, 3, 0))
    assert extensionally_equal(coalesce(DictatorRule(3, 3, 1)), DictatorRule(2, 3, 0))
    assert extensionally_equal(coalesce(DictatorRule(3, 3, 2)), DictatorRule(2, 3, 1))
    pinned = Preference((2, 0, 1))
    assert extensionally_equal(
        restrict(DictatorRule(3, 3, 0), (pinned,)), DictatorRule(2, 3, 0)
    )
    assert extensionally_equal(
        restrict(DictatorRule(3, 3, 2), (pinned,)), ConstantRule(2, 3, 2)
    )
    fixed = (Preference((1, 2, 0)),)
    for rule in sample_efficient_tops_tables(3, 3, 1000, seed=2026):
        merged = coalesce(rule)
        assert find_tops_only_violation(merged) is None
        assert find_efficiency_violation(merged) is None
        assert find_tops_only_violation(restrict(rule, fixed)) is None
    report(9, "dictator mappings reproduced; 1000 sampled rules keep tops-onlyness under both constructions and efficiency under coalescing")


def test_criterion_10_byte_deterministic_reports(capsys):
    invocations = [
        ["census", "--agents", "3", "--alts", "3", "--mode", "sampled",
         "--samples", "2000", "--seed", "424242", "--workers", "1"],
        ["classify", "--rule", "TOPS:n=2,m=3:000011222", "--agents", "2",
         "--alts", "3", "--sets", "--method", "scan"],
        ["lemmas", "C2", "--agents", "2", "--alts", "3", "--samples", "800",
         "--seed", "5", "--workers", "1"],
        ["counterexample", "--agents", "3", "--alts", "2"],
        ["inspect", "--rule", "BORDALEX", "--agents", "2", "--alts", "3",
         "--format", "csv"],
    ]
    for argv in invocations:
        first_code = run(argv)
        first = capsys.readouterr().out
        second_code = run(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second
        assert first
    report(10, f"{len(invocations)} seeded invocations reproduced byte for byte")
