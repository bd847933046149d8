"""Rule representations, rule strings, and the axiom predicates."""

import math
import random
from itertools import product

import pytest

import _definitional
from gsverify import (
    BordaLexRule,
    ConstantRule,
    DictatorRule,
    DimensionMismatchError,
    FullTableRule,
    MajorityLexRule,
    NotTopsOnlyError,
    Preference,
    Profile,
    CapExceededError,
    RuleParseError,
    TopsTableRule,
    as_full_table,
    as_tops_table,
    dictatorial_profile_count,
    efficient_via_tops,
    enumerate_profiles,
    enumerate_tops_only_rules,
    extensionally_equal,
    find_dictator,
    find_efficiency_violation,
    find_manipulation,
    find_tops_only_violation,
    find_unanimity_violation,
    is_efficient,
    is_strategy_proof,
    is_tops_only,
    is_unanimous,
    parse_rule,
    sample_efficient_tops_tables,
)
from gsverify import _engine, prefs, rules
from gsverify._lemmas import _closed_form_library
from gsverify.constructions import _iter_rule_blocks, coalesce, restrict, rule_space_size


def profile(text):
    return Profile.from_text(text)


def borda_oracle_winner(prof):
    """Independent Borda scorer: count pairwise wins per alternative."""
    m = prof.m
    scores = {x: 0 for x in range(m)}
    for p in prof.prefs:
        for x in range(m):
            scores[x] += sum(1 for y in range(m) if x != y and p.prefers(x, y))
    best = max(scores.values())
    return min(x for x in range(m) if scores[x] == best)


class TestEvaluate:
    def test_dictator(self):
        rule = DictatorRule(2, 3, 0)
        assert rule.evaluate(profile("b,a,c|c,a,b")) == 1

    def test_constant(self):
        rule = ConstantRule(2, 3, 0)
        for prof in enumerate_profiles(2, 3):
            assert rule.evaluate(prof) == 0

    def test_borda_hand_example(self):
        # scores a:3, b:3, c:0; tie broken toward a
        rule = BordaLexRule(2, 3)
        assert rule.evaluate(profile("a,b,c|b,a,c")) == 0

    def test_borda_matches_independent_scorer(self):
        rule = BordaLexRule(2, 3)
        for prof in enumerate_profiles(2, 3):
            assert rule.evaluate(prof) == borda_oracle_winner(prof)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DictatorRule(2, 3, 0).evaluate(profile("a,b|b,a"))

    def test_tops_table_depends_only_on_tops(self):
        rule = TopsTableRule(2, 3, (0, 0, 0, 1, 1, 1, 2, 2, 2))
        outcomes = {}
        for prof in enumerate_profiles(2, 3):
            outcomes.setdefault(prof.tops, set()).add(rule.evaluate(prof))
        assert all(len(v) == 1 for v in outcomes.values())

    def test_majority_tie_to_zero(self):
        rule = MajorityLexRule(2)
        assert rule.evaluate(profile("a,b|b,a")) == 0
        assert rule.evaluate(profile("b,a|b,a")) == 1


class TestUnanimity:
    def test_dictators_unanimous(self):
        for i in range(2):
            assert is_unanimous(DictatorRule(2, 3, i))

    def test_constant_violation_witness(self):
        witness = find_unanimity_violation(ConstantRule(2, 3, 0))
        assert witness is not None
        shared = witness.tops[0]
        assert all(t == shared for t in witness.tops)
        assert ConstantRule(2, 3, 0).evaluate(witness) != shared

    def test_majority_unanimous(self):
        assert is_unanimous(MajorityLexRule(3))


class TestTopsOnly:
    def test_tops_table_and_dictator(self):
        assert is_tops_only(TopsTableRule(2, 3, (0,) * 9))
        assert is_tops_only(DictatorRule(2, 3, 1))

    def test_borda_not_tops_only_with_valid_witness(self):
        rule = BordaLexRule(2, 3)
        pair = find_tops_only_violation(rule)
        assert pair is not None
        first, second = pair
        assert first.tops == second.tops
        assert rule.evaluate(first) != rule.evaluate(second)


class TestEfficiency:
    def test_dictator_efficient(self):
        assert is_efficient(DictatorRule(2, 3, 0))

    def test_constant_violation_witness(self):
        rule = ConstantRule(2, 3, 0)
        violation = find_efficiency_violation(rule)
        assert violation is not None
        prof, x = violation
        out = rule.evaluate(prof)
        assert x != out
        assert all(p.prefers(x, out) for p in prof.prefs)
        # the both-agents-(b,c,a) profile is dominated as well
        spec_prof = profile("b,c,a|b,c,a")
        assert all(p.prefers(1, 0) for p in spec_prof.prefs)

    def test_borda_efficient(self):
        rule = BordaLexRule(2, 3)
        assert is_efficient(rule)
        # independent Pareto audit of the same fact
        for prof in enumerate_profiles(2, 3):
            out = rule.evaluate(prof)
            for x in range(3):
                assert x == out or not all(p.prefers(x, out) for p in prof.prefs)


class TestEfficientViaTops:
    def test_dictator_table(self):
        assert efficient_via_tops(as_tops_table(DictatorRule(2, 3, 0)))

    def test_cell_selecting_nobodys_top(self):
        # cell (a, b) -> c; everything else dictatorial for agent 0
        outcomes = list(as_tops_table(DictatorRule(2, 3, 0)).outcomes)
        outcomes[1] = 2
        assert not efficient_via_tops(TopsTableRule(2, 3, tuple(outcomes)))

    def test_rejects_non_tops_only(self):
        with pytest.raises(NotTopsOnlyError):
            efficient_via_tops(BordaLexRule(2, 3))

    def test_agrees_with_definitional_exhaustively(self):
        for rule in enumerate_tops_only_rules(2, 3):
            assert efficient_via_tops(rule) == is_efficient(rule)

    def test_agrees_with_definitional_sampled_n3(self):
        rules = enumerate_tops_only_rules(3, 3, mode="sampled", samples=2000, seed=20260809)
        for rule in rules:
            assert efficient_via_tops(rule) == is_efficient(rule)


class TestStrategyProofness:
    def test_dictator_none(self):
        rule = DictatorRule(2, 3, 1)
        assert find_manipulation(rule) is None
        assert _definitional.find_manipulation(rule) is None

    def test_borda_witness_validates(self):
        rule = BordaLexRule(2, 3)
        witness = find_manipulation(rule)
        assert witness is not None
        assert witness.is_valid(rule)
        assert witness == _definitional.find_manipulation(rule)

    def test_majority_strategy_proof(self):
        assert is_strategy_proof(MajorityLexRule(3))
        assert _definitional.find_manipulation(MajorityLexRule(3)) is None

    def test_witness_scan_is_deterministic(self):
        rule = BordaLexRule(2, 3)
        assert find_manipulation(rule) == find_manipulation(rule)

    @pytest.mark.parametrize("text", ["BORDALEX", "DICT:2", "CONST:1", "TOPS:n=3,m=2:00010111"])
    def test_equals_the_oracle_witness(self, text):
        rule = parse_rule(text, 3, 2 if text.startswith("TOPS") else 3)
        assert find_manipulation(rule) == _definitional.find_manipulation(rule)


class TestDictatorSearch:
    def test_finds_dictator(self):
        assert find_dictator(DictatorRule(2, 3, 1)) == 1

    def test_constant_has_none(self):
        assert find_dictator(ConstantRule(2, 3, 0)) is None

    def test_one_flipped_entry_breaks_dictatorship(self):
        outcomes = list(as_tops_table(DictatorRule(2, 3, 0)).outcomes)
        outcomes[1] = (outcomes[1] + 1) % 3
        assert find_dictator(TopsTableRule(2, 3, tuple(outcomes))) is None

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_dictators_satisfy_all_axioms(self, n, m):
        for i in range(n):
            rule = DictatorRule(n, m, i)
            assert is_strategy_proof(rule)
            assert is_unanimous(rule)
            assert is_tops_only(rule)
            assert is_efficient(rule)


class TestRuleStrings:
    @pytest.mark.parametrize(
        "text",
        [
            "DICT:0",
            "DICT:1",
            "CONST:2",
            "BORDALEX",
            "TOPS:n=2,m=3:000111222",
        ],
    )
    def test_round_trip(self, text):
        rule = parse_rule(text, 2, 3)
        assert rule.to_string() == text
        assert parse_rule(rule.to_string(), 2, 3) == rule

    def test_majority_round_trip(self):
        rule = parse_rule("MAJLEX", 3, 2)
        assert rule == MajorityLexRule(3)
        assert parse_rule(rule.to_string(), 3, 2) == rule

    def test_full_table_round_trip(self):
        rule = as_full_table(BordaLexRule(2, 2))
        assert parse_rule(rule.to_string(), 2, 2) == rule

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
    def test_rule_codes_and_tops_tables_are_a_bijection(self, n, m):
        # the census prints a rule straight from the stream's digits and the
        # object layer through TopsTableRule: both must give one string per
        # code, and the string must parse back to the code's table
        cells, texts, expected = m**n, set(), 0
        for block in _iter_rule_blocks(n, m, "exhaustive", None, None):
            for r, code in enumerate(block.codes):
                assert code == expected  # every code once, ascending
                expected += 1
                digits = block.digits(r)
                assert digits == _engine.digits_from_code(code, cells, m)
                text = _engine._tops_string(n, m, digits)
                rule = TopsTableRule(n, m, tuple(digits))
                assert rule.to_string() == text
                parsed = parse_rule(text)
                assert parsed == rule
                assert int("".join(map(str, parsed.outcomes)), m) == code
                texts.add(text)
        assert expected == len(texts) == rule_space_size(n, m)

    def test_bad_digit_position(self):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule("TOPS:n=2,m=3:0001112x2", 2, 3)
        assert excinfo.value.position == 20
        assert "position 20" in str(excinfo.value)

    def test_wrong_length(self):
        with pytest.raises(RuleParseError):
            parse_rule("TOPS:n=2,m=3:0001", 2, 3)

    def test_bad_header(self):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule("TOPS:n=2;m=3:000111222", 2, 3)
        assert excinfo.value.position == 5

    def test_unknown_form(self):
        with pytest.raises(RuleParseError):
            parse_rule("PLURALITY", 2, 3)

    @pytest.mark.parametrize("text", ["TOPS:n=100000,m=3:0", "FULL:n=2,m=7:0"])
    def test_over_cap_dimensions_fail_before_the_table_length(self, text):
        # m**n or m!**n of the declared dimensions is never computed past a cap
        with pytest.raises(CapExceededError):
            parse_rule(text)

    def test_dimension_conflict(self):
        with pytest.raises(RuleParseError):
            parse_rule("TOPS:n=2,m=3:000111222", 3, 3)

    @pytest.mark.parametrize("text,position", [
        ("DICT:\u00b2", 5),  # superscript two: isdigit() but not int()
        ("CONST:\u00b2", 6),
        ("TOPS:n=2,m=3:00000000\u00b2", 21),
        ("DICT:\uff11", 5),  # fullwidth one: int() reads it as 1
        ("CONST:\u0661", 6),  # Arabic-Indic one
        ("TOPS:n=\u0662,m=3:000000000", 5),  # Arabic-Indic two
        ("TOPS:n=2,m=3:0000\u06610000", 17),
    ])
    def test_only_ascii_digits(self, text, position):
        # a string that parses prints back as itself, so every digit is ASCII
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule(text, 2, 3)
        assert excinfo.value.position == position

    def test_dict_needs_valid_agent(self):
        with pytest.raises(RuleParseError):
            parse_rule("DICT:5", 2, 3)
        with pytest.raises(RuleParseError):
            parse_rule("DICT:x", 2, 3)

    def test_majority_rejects_other_m(self):
        with pytest.raises(RuleParseError):
            parse_rule("MAJLEX", 2, 3)


class TestMaterialization:
    def test_tops_table_of_dictator(self):
        assert as_tops_table(DictatorRule(2, 3, 0)).outcomes == (
            0, 0, 0, 1, 1, 1, 2, 2, 2,
        )

    def test_majority_table(self):
        assert as_tops_table(MajorityLexRule(2)).outcomes == (0, 0, 0, 1)

    def test_borda_rejected(self):
        with pytest.raises(NotTopsOnlyError):
            as_tops_table(BordaLexRule(2, 3))

    def test_full_table_agrees(self):
        rule = BordaLexRule(2, 3)
        assert extensionally_equal(rule, as_full_table(rule))

    def test_tops_only_full_table_collapses_back(self):
        table = as_full_table(DictatorRule(2, 3, 1))
        assert as_tops_table(table) == as_tops_table(DictatorRule(2, 3, 1))

    def test_extensional_equality_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            extensionally_equal(DictatorRule(2, 3, 0), DictatorRule(3, 3, 0))


class TestEfficientSampler:
    def test_sampled_rules_are_unanimous_and_efficient(self):
        for rule in sample_efficient_tops_tables(2, 3, 50, seed=5):
            assert is_unanimous(rule)
            assert efficient_via_tops(rule)

    def test_deterministic(self):
        first = [r.outcomes for r in sample_efficient_tops_tables(3, 3, 20, seed=9)]
        second = [r.outcomes for r in sample_efficient_tops_tables(3, 3, 20, seed=9)]
        assert first == second


def per_profile_table(rule):
    """The definitional full table: ``evaluate`` at every profile."""
    return tuple(rule.evaluate(p) for p in enumerate_profiles(rule.n, rule.m))


class TestFullTableFromTops:
    """Rules tops-only by construction read their full table off the tops
    table; pinned to per-``Profile`` evaluation."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 4), (3, 2)])
    def test_closed_forms(self, n, m):
        library = _closed_form_library(n, m)
        assert any(rule.tops_only_by_construction for rule in library)
        for rule in library:
            assert as_full_table(rule).outcomes == per_profile_table(rule), rule

    def test_coalesced_and_restricted_rules(self):
        rng = random.Random(7)
        table = TopsTableRule(3, 3, tuple(rng.randrange(3) for _ in range(27)))
        fixed = [Preference((2, 0, 1))]
        derived = [
            coalesce(table), coalesce(DictatorRule(3, 3, 1)), coalesce(BordaLexRule(3, 3)),
            restrict(table, fixed), restrict(DictatorRule(3, 3, 2), fixed),
            restrict(BordaLexRule(3, 3), fixed),
        ]
        assert [rule.tops_only_by_construction for rule in derived] == [True, True, False] * 2
        for rule in derived:
            assert as_full_table(rule).outcomes == per_profile_table(rule), rule

    def test_seeded_tops_tables(self):
        rng = random.Random(11)
        for _ in range(200):
            rule = TopsTableRule(2, 3, tuple(rng.randrange(3) for _ in range(9)))
            assert as_full_table(rule).outcomes == per_profile_table(rule), rule

    def test_no_profile_is_built(self, monkeypatch):
        def refuse(n, m):
            raise AssertionError("enumerated the profiles of a tops-only rule")

        monkeypatch.setattr(rules, "enumerate_profiles", refuse)
        assert as_full_table(DictatorRule(3, 4, 0)).outcomes[-1] == 3
        assert find_manipulation(TopsTableRule(2, 3, (0,) * 9)) is None


# ---------------------------------------------------------------------------
# The full-table scans against the object-level oracles.
# ---------------------------------------------------------------------------


def oracle_answers(rule):
    """Each single-rule question answered by its object-level oracle."""
    tops_violation = _definitional.find_tops_only_violation(rule)
    return {
        "unanimity": _definitional.find_unanimity_violation(rule),
        "tops_only": tops_violation,
        "efficiency": _definitional.find_efficiency_violation(rule),
        "dictator": _definitional.find_dictator(rule),
        "dictatorial_profiles": _definitional.dictatorial_profile_count(rule),
        "tops_table": None if tops_violation else _definitional.tops_table(rule),
    }


def scan_answers(rule):
    """The same questions answered by the scans of the rule's full table."""
    tops_violation = find_tops_only_violation(rule)
    return {
        "unanimity": find_unanimity_violation(rule),
        "tops_only": tops_violation,
        "efficiency": find_efficiency_violation(rule),
        "dictator": find_dictator(rule),
        "dictatorial_profiles": dictatorial_profile_count(rule),
        "tops_table": None if tops_violation else as_tops_table(rule).outcomes,
    }


def assert_scans_match_oracles(rules):
    """Witness for witness, on each rule and on its full table (a full table
    is not tops-only by construction, so every question scans it); returns
    how many rules satisfy each axiom."""
    passed = dict.fromkeys(("unanimity", "tops_only", "efficiency", "dictator"), 0)
    for rule in rules:
        expected = oracle_answers(rule)
        assert scan_answers(rule) == expected, rule
        table = as_full_table(rule)
        assert scan_answers(table) == expected, rule
        for name in passed:
            passed[name] += (expected[name] is None) != (name == "dictator")
    # extensional equality of neighbours, and of each rule with its table
    for f, g in zip(rules, rules[1:] + rules[:1]):
        if (f.n, f.m) == (g.n, g.m):
            assert extensionally_equal(f, g) == _definitional.extensionally_equal(f, g)
        assert extensionally_equal(f, as_full_table(f))
    return passed


def full_tables(n, m):
    size = math.factorial(m) ** n
    return [FullTableRule(n, m, t) for t in product(range(m), repeat=size)]


def seeded_full_tables(n, m, count, seed):
    rng = random.Random(seed)
    size = math.factorial(m) ** n
    return [FullTableRule(n, m, tuple(rng.randrange(m) for _ in range(size)))
            for _ in range(count)]


def perturbed_tops_tables(n, m, count, seed):
    """Full tables of dictatorships and of unanimous cell-efficient tops tables,
    each with one profile's outcome changed: one violation, anywhere."""
    rng = random.Random(seed)
    bases = [DictatorRule(n, m, i) for i in range(n)]
    bases += sample_efficient_tops_tables(n, m, count, seed=seed)
    rules = []
    for base in bases:
        outcomes = list(as_full_table(base).outcomes)
        pc = rng.randrange(len(outcomes))
        outcomes[pc] = (outcomes[pc] + rng.randrange(1, m)) % m
        rules.append(FullTableRule(n, m, tuple(outcomes)))
    return rules


class TestScansAgainstOracles:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
    def test_every_full_table(self, n, m):
        rules = full_tables(n, m)
        assert len(rules) == {2: 16, 3: 256}[n]
        passed = assert_scans_match_oracles(rules)
        # at m = 2 a preference is its top: every full table is a tops table
        assert passed["tops_only"] == len(rules)
        assert passed["dictator"] == n
        assert 0 < passed["unanimity"] < len(rules)
        assert 0 < passed["efficiency"] < len(rules)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_closed_forms(self, n, m):
        assert_scans_match_oracles(_closed_form_library(n, m))

    def test_coalesced_and_restricted_rules(self):
        rng = random.Random(7)
        table = TopsTableRule(3, 3, tuple(rng.randrange(3) for _ in range(27)))
        fixed = [Preference((2, 0, 1))]
        assert_scans_match_oracles([
            coalesce(table), coalesce(DictatorRule(3, 3, 1)), coalesce(BordaLexRule(3, 3)),
            restrict(table, fixed), restrict(DictatorRule(3, 3, 2), fixed),
            restrict(BordaLexRule(3, 3), fixed),
        ])

    @pytest.mark.parametrize("n,m,count", [(2, 3, 30), (3, 3, 6)])
    def test_seeded_full_tables(self, n, m, count):
        assert_scans_match_oracles(seeded_full_tables(n, m, count, 20283))

    @pytest.mark.parametrize("n,m,count", [(2, 3, 40), (3, 3, 10)])
    def test_perturbed_tops_tables(self, n, m, count):
        passed = assert_scans_match_oracles(perturbed_tops_tables(n, m, count, 20284))
        # one changed profile breaks tops-onlyness, and only sometimes the rest
        assert passed["tops_only"] == 0
        assert 0 < passed["efficiency"] < count + n


class TestCapsReadOnce:
    """A single-rule question reads the caps at the walk's entry; neither the
    table built there nor the witness decode reads them again."""

    @pytest.mark.parametrize("question", [
        find_unanimity_violation, find_tops_only_violation, find_efficiency_violation,
        find_manipulation, find_dictator,
    ])
    def test_at_most_two_reads(self, monkeypatch, question):
        rules = [
            TopsTableRule(2, 3, (1, 2, 2, 1, 2, 1, 1, 2, 1)), BordaLexRule(2, 3),
            DictatorRule(2, 3, 0), ConstantRule(2, 3, 1),
            as_full_table(BordaLexRule(2, 3)),
        ]
        honest = prefs.max_alternatives
        reads = []
        monkeypatch.setattr(prefs, "max_alternatives", lambda: reads.append(1) or honest())
        answered = []
        for rule in rules:
            reads.clear()
            answered.append(question(rule) is not None)
            assert len(reads) <= 2, (question.__name__, rule)
        assert any(answered)  # some answer decodes a witness or names a dictator
