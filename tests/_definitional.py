"""Definitional oracles for the tests: object-level loops over ``Profile``s.

These walk the profile space with the object layer alone, so a test that
compares a kernel with them does not compare the kernel with itself.  This
module must import nothing from ``gsverify._engine``.
"""

from gsverify.prefs import enumerate_preferences, enumerate_profiles
from gsverify.rules import ManipulationWitness


def find_manipulation(rule):
    """First manipulation in (profile code, agent, misreport code) order: every
    profile, every agent, every one of the m! misreports, each evaluated on
    the rule itself."""
    misreports = enumerate_preferences(rule.m)
    for profile in enumerate_profiles(rule.n, rule.m):
        out = rule.evaluate(profile)
        for i in range(rule.n):
            pref = profile.prefs[i]
            for q in misreports:
                alt = rule.evaluate(profile.with_replaced(i, q))
                if pref.prefers(alt, out):
                    return ManipulationWitness(profile, i, q, out, alt)
    return None


def find_dictator(rule):
    """The agent whose top the rule selects at every profile, or None."""
    for i in range(rule.n):
        if all(
            rule.evaluate(profile) == profile.prefs[i].top
            for profile in enumerate_profiles(rule.n, rule.m)
        ):
            return i
    return None


def witness_tuple(witness):
    """A witness as (profile code, agent, misreport code, sincere, improved)."""
    if witness is None:
        return None
    return (
        witness.profile.code,
        witness.agent,
        witness.misreport.rank_code,
        witness.sincere_outcome,
        witness.improved_outcome,
    )
