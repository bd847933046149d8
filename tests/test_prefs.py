"""Preference, profile, and domain behavior."""

import math
from itertools import permutations

import pytest

from gsverify import (
    CapExceededError,
    Preference,
    PreferenceDomain,
    Profile,
    decode_preference,
    encode_preference,
    enumerate_preferences,
    enumerate_profiles,
    is_minimally_rich,
    preferences_with_top,
    profile_from_code,
    satisfies_property_t_star,
)
from gsverify import prefs


def pref(text):
    return Preference.from_text(text)


def profile(text):
    return Profile.from_text(text)


class TestPreference:
    def test_top(self):
        assert pref("a,b,c").top == 0
        assert pref("c,a,b").top == 2

    def test_each_alternative_tops_factorial_many_preferences(self):
        tops = [p.top for p in enumerate_preferences(3)]
        for x in range(3):
            assert tops.count(x) == math.factorial(2)

    def test_prefers(self):
        p = pref("a,b,c")
        assert p.prefers(1, 2)
        assert not p.prefers(2, 1)
        assert not p.prefers(0, 0)

    def test_weakly_prefers(self):
        p = pref("a,b,c")
        assert p.weakly_prefers(0, 0)
        assert p.weakly_prefers(0, 2)
        assert not p.weakly_prefers(2, 0)

    def test_prefers_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pref("a,b,c").prefers(0, 5)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Preference((0, 0, 2))
        with pytest.raises(ValueError):
            Preference((0, 1, 3))
        with pytest.raises(ValueError):
            Preference((0,))

    def test_text_round_trip(self):
        for p in enumerate_preferences(4):
            assert Preference.from_text(p.to_text()) == p
        assert pref("b,a,c").to_text() == "b,a,c"


class TestCodec:
    def test_lexicographic_extremes(self):
        assert encode_preference(pref("a,b,c")) == 0
        assert encode_preference(pref("c,b,a")) == 5

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_round_trip_identity(self, m):
        total = math.factorial(m)
        seen = set()
        for code in range(total):
            p = decode_preference(code, m)
            assert encode_preference(p) == code
            seen.add(p)
        assert len(seen) == total

    def test_matches_enumeration_order(self):
        for m in (2, 3, 4):
            prefs = enumerate_preferences(m)
            assert [p.rank_code for p in prefs] == list(range(math.factorial(m)))
            assert [tuple(r) for r in permutations(range(m))] == [
                p.ranking for p in prefs
            ]

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode_preference(6, 3)
        with pytest.raises(ValueError):
            decode_preference(-1, 3)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_preferences(3)) == 6
        assert len(set(enumerate_preferences(4))) == 24

    def test_m2_order(self):
        assert [p.ranking for p in enumerate_preferences(2)] == [(0, 1), (1, 0)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_preferences(7)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GSVERIFY_MAX_ALTS", "7")
        assert len(enumerate_preferences(7)) == math.factorial(7)

    def test_preferences_with_top(self):
        for x in range(3):
            group = preferences_with_top(3, x)
            assert len(group) == 2
            assert all(p.top == x for p in group)


class TestProfile:
    def test_with_replaced_identity(self):
        prof = profile("a,b,c|c,a,b")
        assert prof.with_replaced(0, prof.prefs[0]) == prof

    def test_with_replaced_leaves_others(self):
        prof = profile("a,b,c|c,a,b")
        swapped = prof.with_replaced(1, pref("b,c,a"))
        assert swapped.prefs[0] == prof.prefs[0]
        assert swapped.prefs[1] == pref("b,c,a")
        assert prof == profile("a,b,c|c,a,b")

    def test_with_replaced_involution(self):
        prof = profile("a,b,c|c,a,b")
        q = pref("b,a,c")
        assert prof.with_replaced(0, q).with_replaced(0, prof.prefs[0]) == prof

    def test_with_replaced_index_error(self):
        with pytest.raises(ValueError):
            profile("a,b,c|c,a,b").with_replaced(2, pref("a,b,c"))

    def test_tops(self):
        assert profile("a,b,c|c,a,b").tops == (0, 2)
        assert profile("b,a,c|b,c,a").tops == (1, 1)

    def test_tops_change_only_at_replaced_agent(self):
        prof = profile("a,b,c|c,a,b")
        for q in enumerate_preferences(3):
            swapped = prof.with_replaced(0, q)
            assert swapped.tops[1] == prof.tops[1]

    def test_supporters(self):
        prof = profile("a,b,c|c,a,b")
        assert prof.supporters(0) == frozenset({0})
        assert prof.supporters(1) == frozenset()
        assert prof.supporters(2) == frozenset({1})

    @pytest.mark.parametrize("n", [2, 3])
    def test_supporters_partition_agents(self, n):
        for prof in enumerate_profiles(n, 3):
            groups = [prof.supporters(x) for x in range(3)]
            assert sum(len(g) for g in groups) == n
            assert frozenset().union(*groups) == frozenset(range(n))

    def test_profile_text_round_trip(self):
        for prof in enumerate_profiles(2, 3):
            assert Profile.from_text(prof.to_text()) == prof

    def test_profile_code_round_trip(self):
        profiles = list(enumerate_profiles(2, 3))
        assert len(profiles) == 36
        assert [p.code for p in profiles] == list(range(36))
        for p in profiles:
            assert profile_from_code(p.code, 2, 3) == p

    @pytest.mark.parametrize("cap,m", [(None, 7), ("3", 4)])
    def test_profile_from_code_rejects_over_cap_m(self, monkeypatch, cap, m):
        # the same error as decoding one agent's preference at that m
        if cap is not None:
            monkeypatch.setenv("GSVERIFY_MAX_ALTS", cap)
        with pytest.raises(CapExceededError) as one:
            decode_preference(0, m)
        with pytest.raises(CapExceededError) as whole:
            profile_from_code(0, 2, m)
        assert str(whole.value) == str(one.value)
        assert f"m={m} exceeds the alternative cap" in str(whole.value)

    def test_profile_from_code_reads_the_cap_once(self, monkeypatch):
        reads = []
        honest = prefs.max_alternatives
        monkeypatch.setattr(prefs, "max_alternatives", lambda: reads.append(1) or honest())
        assert profile_from_code(215, 3, 3).to_text() == "c,b,a|c,b,a|c,b,a"
        assert len(reads) == 1

    def test_mixed_alternative_counts_rejected(self):
        with pytest.raises(ValueError):
            Profile((pref("a,b,c"), Preference((0, 1))))

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            Profile((pref("a,b,c"),))

    def test_agent_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_profiles(6, 2))


class TestDomains:
    def test_universal_minimally_rich(self):
        assert is_minimally_rich(PreferenceDomain.universal(3))

    def test_singleton_not_minimally_rich(self):
        assert not is_minimally_rich(PreferenceDomain(frozenset({pref("a,b,c")})))

    def test_three_tops_minimally_rich(self):
        domain = PreferenceDomain(
            frozenset({pref("a,b,c"), pref("b,a,c"), pref("c,a,b")})
        )
        assert is_minimally_rich(domain)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_universal_satisfies_t_star(self, m):
        assert satisfies_property_t_star(PreferenceDomain.universal(m))

    def test_singleton_fails_t_star(self):
        # frozen by direct quantifier evaluation: the top-b witness is missing
        domain = PreferenceDomain(frozenset({pref("a,b,c")}))
        assert not satisfies_property_t_star(domain)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            PreferenceDomain(frozenset())
