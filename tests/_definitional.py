"""Definitional oracles for the tests: object-level loops over ``Profile``s.

These walk the profile space with the object layer alone, so a test that
compares a kernel or a full-table scan with them does not compare it with
itself.  This module must import nothing from ``gsverify._engine``, and no
predicate or materialiser (``find_*``, ``is_*``, ``as_*_table``) from
``gsverify.rules`` or ``gsverify.classify``: those run through the engine.
"""

from itertools import product

from gsverify.prefs import Profile, enumerate_preferences, enumerate_profiles, preferences_with_top
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


def find_unanimity_violation(rule):
    """First common-top profile whose outcome is not the shared top: the shared
    tops in order, each one's profiles in profile-code order."""
    by_top = [preferences_with_top(rule.m, x) for x in range(rule.m)]
    for x in range(rule.m):
        for combo in product(by_top[x], repeat=rule.n):
            profile = Profile(combo)
            if rule.evaluate(profile) != x:
                return profile
    return None


def find_tops_only_violation(rule):
    """The tops profiles in order; in the first whose profiles disagree, its
    first profile and the first profile with another outcome."""
    by_top = [preferences_with_top(rule.m, x) for x in range(rule.m)]
    for tops in product(range(rule.m), repeat=rule.n):
        first = None
        first_out = None
        for combo in product(*(by_top[t] for t in tops)):
            profile = Profile(combo)
            out = rule.evaluate(profile)
            if first is None:
                first, first_out = profile, out
            elif out != first_out:
                return first, profile
    return None


def find_efficiency_violation(rule):
    """The first profile, and the lowest alternative there, that every agent
    strictly prefers to the outcome."""
    for profile in enumerate_profiles(rule.n, rule.m):
        out = rule.evaluate(profile)
        for x in range(rule.m):
            if x != out and all(p.prefers(x, out) for p in profile.prefs):
                return profile, x
    return None


def extensionally_equal(f, g):
    """Same outcome on every profile (the dimensions must agree)."""
    return all(
        f.evaluate(profile) == g.evaluate(profile)
        for profile in enumerate_profiles(f.n, f.m)
    )


def tops_table(rule):
    """Each tops cell's outcome at one representative profile: every agent
    holds the lowest-coded preference with its top."""
    by_top = [preferences_with_top(rule.m, x) for x in range(rule.m)]
    return tuple(
        rule.evaluate(Profile(tuple(by_top[t][0] for t in tops)))
        for tops in product(range(rule.m), repeat=rule.n)
    )


def dictatorial_violation(rule, profile):
    """First (agent, misreport) moving the outcome for an agent whose top is
    not selected; None means the profile is dictatorial."""
    out = rule.evaluate(profile)
    misreports = enumerate_preferences(profile.m)
    for i in range(profile.n):
        if profile.prefs[i].top == out:
            continue
        for q in misreports:
            if rule.evaluate(profile.with_replaced(i, q)) != out:
                return i, q
    return None


def dictatorial_profile_count(rule):
    """|D_f|: the profiles with no dictatorial violation."""
    return sum(
        dictatorial_violation(rule, profile) is None
        for profile in enumerate_profiles(rule.n, rule.m)
    )


def profile_manipulation(rule, profile):
    """A manipulation at a same-top variant of the profile, if one exists: the
    agents in order, each one's stand-ins with its top, then every misreport."""
    misreports = enumerate_preferences(profile.m)
    for i in range(profile.n):
        for stand_in in preferences_with_top(profile.m, profile.prefs[i].top):
            varied = profile.with_replaced(i, stand_in)
            sincere = rule.evaluate(varied)
            for q in misreports:
                alt = rule.evaluate(varied.with_replaced(i, q))
                if stand_in.prefers(alt, sincere):
                    return ManipulationWitness(varied, i, q, sincere, alt)
    return None


def classification_examples(rule):
    """(first manipulable profile and its witness, first dictatorial profile),
    each None when no profile has that verdict."""
    manipulable = dictatorial = None
    for profile in enumerate_profiles(rule.n, rule.m):
        if manipulable is None:
            witness = profile_manipulation(rule, profile)
            if witness is not None:
                manipulable = (profile, witness)
        if dictatorial is None and dictatorial_violation(rule, profile) is None:
            dictatorial = profile
        if manipulable is not None and dictatorial is not None:
            break
    return manipulable, dictatorial


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
