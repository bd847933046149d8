"""Manipulable/dictatorial profile classification and the comparison orders."""

import random

import pytest

from gsverify import (
    BordaLexRule,
    ConstantRule,
    DictatorRule,
    DimensionMismatchError,
    NotTopsOnlyError,
    Profile,
    ProfileClassification,
    TopsTableRule,
    Verdict,
    as_tops_table,
    at_least_as_dictatorial,
    at_least_as_manipulable,
    bitset_codes,
    bitset_to_hex,
    check_duality,
    classify_all,
    classify_profile,
    dictatorial_profile_count,
    enumerate_profiles,
    enumerate_tops_only_rules,
    find_profile_manipulation,
    hex_to_bitset,
    is_dictatorial_profile,
    is_manipulable_profile,
    manipulable_profile_count,
    remark_dictatorial_maximal,
    remark_strategyproof_minimal,
)

# unanimous, efficient, non-dictatorial: differs from DICT:0 only at tops (b, a)
SWING_RULE = TopsTableRule(2, 3, (0, 0, 0, 0, 1, 1, 2, 2, 2))


def profile(text):
    return Profile.from_text(text)


def random_rules(n, m, count, seed):
    rng = random.Random(seed)
    cells = m**n
    return [
        TopsTableRule(n, m, tuple(rng.randrange(m) for _ in range(cells)))
        for _ in range(count)
    ]


class TestDictatorialProfiles:
    def test_every_profile_under_dictator(self):
        rule = DictatorRule(2, 3, 0)
        for prof in enumerate_profiles(2, 3):
            assert is_dictatorial_profile(rule, prof)

    def test_every_profile_under_constant(self):
        rule = ConstantRule(2, 3, 0)
        for prof in enumerate_profiles(2, 3):
            assert is_dictatorial_profile(rule, prof)

    def test_unanimous_profiles_under_unanimous_rule(self):
        rule = BordaLexRule(2, 3)
        for prof in enumerate_profiles(2, 3):
            if len(set(prof.tops)) == 1:
                assert is_dictatorial_profile(rule, prof)


class TestManipulableProfiles:
    def test_never_under_dictator(self):
        rule = DictatorRule(2, 3, 1)
        for prof in enumerate_profiles(2, 3):
            assert not is_manipulable_profile(rule, prof)

    def test_swing_rule_instance(self):
        # at tops (b, a) the outcome is a; agent 0 can reach c by reporting
        # a c-top preference, and the b-top stand-in (b,c,a) prefers c to a
        prof = profile("b,a,c|a,b,c")
        witness = find_profile_manipulation(SWING_RULE, prof)
        assert witness is not None
        assert witness.is_valid(SWING_RULE)
        assert witness.profile.tops == prof.tops
        assert witness.agent == 0

    def test_rejects_non_tops_only(self):
        with pytest.raises(NotTopsOnlyError):
            is_manipulable_profile(BordaLexRule(2, 3), profile("a,b,c|b,a,c"))

    def test_partition_object_level(self):
        for prof in enumerate_profiles(2, 3):
            assert is_manipulable_profile(SWING_RULE, prof) != is_dictatorial_profile(
                SWING_RULE, prof
            )


class TestClassifyProfile:
    def test_dictatorial_verdict(self):
        result = classify_profile(DictatorRule(2, 3, 0), profile("a,b,c|b,a,c"))
        assert result.verdict is Verdict.DICTATORIAL
        assert result.witness is None
        assert result.violator is None

    def test_manipulable_verdict_carries_evidence(self):
        result = classify_profile(SWING_RULE, profile("b,a,c|a,b,c"))
        assert result.verdict is Verdict.MANIPULABLE
        assert result.witness is not None and result.witness.is_valid(SWING_RULE)
        agent, misreport = result.violator
        varied = result.profile.with_replaced(agent, misreport)
        assert SWING_RULE.evaluate(varied) != SWING_RULE.evaluate(result.profile)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ProfileClassification(
                profile("a,b,c|b,a,c"), Verdict.MANIPULABLE, None, None
            )


class TestClassifyAll:
    def test_dictator_counts(self):
        summary = classify_all(DictatorRule(2, 3, 0))
        assert (summary.m_count, summary.d_count, summary.total) == (0, 36, 36)
        assert summary.unanimous

    def test_constant_counts(self):
        for rule in (ConstantRule(2, 3, 0), as_tops_table(ConstantRule(2, 3, 0))):
            summary = classify_all(rule)
            assert (summary.m_count, summary.d_count) == (0, 36)
            assert not summary.unanimous

    def test_rejects_non_tops_only(self):
        with pytest.raises(NotTopsOnlyError):
            classify_all(BordaLexRule(2, 3))

    def test_every_nondictatorial_te_rule_has_manipulable_profiles(self):
        for rule in enumerate_tops_only_rules(2, 3, ("unanimous", "efficient")):
            summary = classify_all(rule)
            is_dict = rule.outcomes in (
                as_tops_table(DictatorRule(2, 3, 0)).outcomes,
                as_tops_table(DictatorRule(2, 3, 1)).outcomes,
            )
            assert (summary.m_count == 0) == is_dict

    def test_cells_and_scan_agree(self):
        rules = random_rules(2, 3, 40, seed=11) + [SWING_RULE, DictatorRule(2, 3, 1)]
        for rule in rules:
            cells = classify_all(rule, materialize_sets=True, method="cells")
            scan = classify_all(rule, materialize_sets=True, method="scan")
            assert (cells.m_count, cells.d_count) == (scan.m_count, scan.d_count)
            assert (cells.m_set, cells.d_set) == (scan.m_set, scan.d_set)

    def test_scan_matches_object_level_predicates(self):
        for rule in random_rules(2, 3, 10, seed=13):
            summary = classify_all(rule, materialize_sets=True, method="scan")
            m_codes = set(bitset_codes(summary.m_set))
            for prof in enumerate_profiles(2, 3):
                assert is_manipulable_profile(rule, prof) == (prof.code in m_codes)

    def test_scan_matches_object_level_at_three_agents(self):
        for rule in random_rules(3, 3, 5, seed=59):
            summary = classify_all(rule, materialize_sets=True, method="scan")
            d_codes = set(bitset_codes(summary.d_set))
            for prof in enumerate_profiles(3, 3):
                assert is_dictatorial_profile(rule, prof) == (prof.code in d_codes)
                assert is_manipulable_profile(rule, prof) == (prof.code not in d_codes)

    def test_all_routes_agree_on_the_whole_m2_rule_space(self):
        for rule in enumerate_tops_only_rules(2, 2):
            cells = classify_all(rule, materialize_sets=True, method="cells")
            scan = classify_all(rule, materialize_sets=True, method="scan")
            assert (cells.m_set, cells.d_set) == (scan.m_set, scan.d_set)
            d_codes = set(bitset_codes(scan.d_set))
            for prof in enumerate_profiles(2, 2):
                assert is_dictatorial_profile(rule, prof) == (prof.code in d_codes)

    def test_partition_counts(self):
        for rule in random_rules(2, 3, 60, seed=17):
            summary = classify_all(rule, materialize_sets=True)
            assert summary.m_count + summary.d_count == summary.total
            assert summary.m_set & summary.d_set == 0
            assert summary.m_set | summary.d_set == (1 << summary.total) - 1
            assert summary.m_set.bit_count() == summary.m_count

    def test_verdicts_constant_on_tops_cells(self):
        for rule in random_rules(2, 3, 25, seed=19):
            by_tops = {}
            for prof in enumerate_profiles(2, 3):
                by_tops.setdefault(prof.tops, set()).add(
                    is_dictatorial_profile(rule, prof)
                )
            assert all(len(v) == 1 for v in by_tops.values())


class TestBitsets:
    def test_hex_round_trip(self):
        summary = classify_all(SWING_RULE, materialize_sets=True)
        hex_form = bitset_to_hex(summary.m_set, summary.total)
        assert len(hex_form) == 9
        assert hex_to_bitset(hex_form) == summary.m_set

    @pytest.mark.parametrize("call", [
        lambda: bitset_codes(-1),
        lambda: bitset_to_hex(-1, 36),
        lambda: hex_to_bitset("-1"),
    ])
    def test_negative_bitsets_are_rejected(self, call):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            call()

    def test_hex_form_rejects_bits_past_the_profile_count(self):
        assert bitset_to_hex(2**35, 36) == "800000000"
        with pytest.raises(ValueError, match="over 36 profile codes has bit 36"):
            bitset_to_hex(2**36, 36)
        with pytest.raises(ValueError, match="over 36 profile codes has bit 40"):
            bitset_to_hex(2**40, 36)

    @pytest.mark.parametrize("text", ["1_f", " 0x1f ", "0x1f", "+1f", "1f\n"])
    def test_hex_text_is_hex_digits_only(self, text):
        with pytest.raises(ValueError, match="hex digits only"):
            hex_to_bitset(text)


class TestOrders:
    def test_any_rule_at_least_as_manipulable_as_dictator(self):
        dictator = DictatorRule(2, 3, 0)
        for rule in random_rules(2, 3, 20, seed=23):
            assert at_least_as_manipulable(rule, dictator)

    def test_reflexive(self):
        assert at_least_as_manipulable(SWING_RULE, SWING_RULE)
        assert at_least_as_dictatorial(SWING_RULE, SWING_RULE)

    def test_transitive_on_sampled_triples(self):
        rules = random_rules(2, 3, 12, seed=29)
        counts = {r: manipulable_profile_count(r) for r in rules}
        for f in rules:
            for g in rules:
                for h in rules:
                    if counts[f] >= counts[g] and counts[g] >= counts[h]:
                        assert at_least_as_manipulable(f, h)

    def test_dictator_and_constant_dominate_in_dictatorial_power(self):
        for rule in random_rules(2, 3, 20, seed=31):
            assert at_least_as_dictatorial(DictatorRule(2, 3, 0), rule)
            assert at_least_as_dictatorial(ConstantRule(2, 3, 1), rule)

    def test_dictatorial_count_for_non_tops_only(self):
        # defined for arbitrary rules; Borda at n=2, m=3 needs the raw scan
        count = dictatorial_profile_count(BordaLexRule(2, 3))
        unanimous_profiles = sum(
            1 for p in enumerate_profiles(2, 3) if len(set(p.tops)) == 1
        )
        assert count >= unanimous_profiles

    def test_manipulability_order_rejects_non_tops_only(self):
        with pytest.raises(NotTopsOnlyError):
            at_least_as_manipulable(BordaLexRule(2, 3), DictatorRule(2, 3, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            at_least_as_dictatorial(DictatorRule(2, 3, 0), DictatorRule(3, 3, 0))


class TestDuality:
    def test_named_pool_pairs(self):
        pool = [
            DictatorRule(2, 3, 0),
            DictatorRule(2, 3, 1),
            as_tops_table(ConstantRule(2, 3, 0)),
        ]
        for f in pool:
            for g in pool:
                assert check_duality(f, g)

    def test_seeded_random_pairs(self):
        rules = random_rules(2, 3, 30, seed=37)
        rng = random.Random(41)
        for _ in range(200):
            f, g = rng.choice(rules), rng.choice(rules)
            assert check_duality(f, g)


class TestRemarks:
    def test_strategy_proof_rules_are_minimal(self):
        pool = random_rules(2, 3, 15, seed=43) + [DictatorRule(2, 3, 1)]
        assert remark_strategyproof_minimal(DictatorRule(2, 3, 0), pool)
        assert manipulable_profile_count(DictatorRule(2, 3, 0)) == 0

    def test_manipulable_rule_still_satisfies_biconditional(self):
        pool = random_rules(2, 3, 15, seed=47) + [DictatorRule(2, 3, 0)]
        assert remark_strategyproof_minimal(SWING_RULE, pool)
        assert manipulable_profile_count(SWING_RULE) > 0

    def test_dictatorial_maximality_over_te_pool(self):
        pool = list(enumerate_tops_only_rules(2, 3, ("unanimous", "efficient")))
        assert remark_dictatorial_maximal(DictatorRule(2, 3, 1), pool)
        assert remark_dictatorial_maximal(SWING_RULE, pool)
        assert dictatorial_profile_count(SWING_RULE) < 36

    def test_inefficient_rule_rejected(self):
        with pytest.raises(ValueError):
            remark_dictatorial_maximal(ConstantRule(2, 3, 0), [])
