"""Social choice rules at fixed (n, m) and the classic axioms as decidable predicates.

A rule is a total deterministic map from profiles to alternatives.  Concrete
representations: explicit tables over tops profiles or over full profiles,
plus a small closed-form library (dictator, constant, Borda and two-candidate
majority with lexicographic tie-breaks).

Every axiom predicate is an exhaustive loop over the finite profile space and
returns a witness on failure; strategy-proofness runs as the integer scan
``_engine.full_table_manipulation`` over the rule's full table.  Witness scan
order is lexicographic in (profile code, agent, misreport code), so failures
reproduce byte for byte.
"""

from __future__ import annotations

import abc
import math
import re
from itertools import product
from typing import ClassVar

from . import _engine
from ._value import frozen
from .errors import DimensionMismatchError, NotTopsOnlyError, RuleParseError
from .prefs import (
    Alternative,
    Preference,
    Profile,
    TopsProfile,
    check_agent_count,
    check_alternative_count,
    check_profile_work,
    enumerate_preferences,
    enumerate_profiles,
    preferences_with_top,
    profile_from_code,
    tops_from_code,
)


class Rule(abc.ABC):
    """A deterministic total map from profiles to alternatives.

    Subclasses declare their (n, m) and whether tops-onlyness holds by
    construction; structurally tops-only rules also expose ``evaluate_tops``.
    """

    n: int
    m: int
    tops_only_by_construction: ClassVar[bool] = False

    @abc.abstractmethod
    def evaluate(self, profile: Profile) -> Alternative:
        """The chosen alternative at the given profile."""

    def evaluate_tops(self, tops: TopsProfile) -> Alternative:
        """Outcome from a tops profile alone; only for structurally tops-only rules."""
        raise NotTopsOnlyError(
            f"{type(self).__name__} does not expose a tops-level evaluator"
        )

    @abc.abstractmethod
    def to_string(self) -> str:
        """Canonical rule string; parses back to an equal rule."""

    def _check_profile(self, profile: Profile) -> None:
        if profile.n != self.n or profile.m != self.m:
            raise DimensionMismatchError(
                f"profile has (n={profile.n}, m={profile.m}), "
                f"rule wants (n={self.n}, m={self.m})"
            )

    def _check_tops(self, tops: TopsProfile) -> None:
        if len(tops) != self.n or any(not 0 <= t < self.m for t in tops):
            raise DimensionMismatchError(
                f"tops profile {tops} does not fit (n={self.n}, m={self.m})"
            )


def _check_dims(n: int, m: int) -> None:
    check_agent_count(n)
    check_alternative_count(m)


@frozen
class DictatorRule(Rule):
    """Always selects the dictator agent's top."""

    n: int
    m: int
    agent: int

    tops_only_by_construction = True

    def __post_init__(self) -> None:
        _check_dims(self.n, self.m)
        if not 0 <= self.agent < self.n:
            raise ValueError(f"dictator index {self.agent} out of range for n={self.n}")

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        return profile.prefs[self.agent].top

    def evaluate_tops(self, tops: TopsProfile) -> Alternative:
        self._check_tops(tops)
        return tops[self.agent]

    def to_string(self) -> str:
        return f"DICT:{self.agent}"


@frozen
class ConstantRule(Rule):
    """Selects the same alternative at every profile."""

    n: int
    m: int
    alternative: int

    tops_only_by_construction = True

    def __post_init__(self) -> None:
        _check_dims(self.n, self.m)
        if not 0 <= self.alternative < self.m:
            raise ValueError(
                f"alternative {self.alternative} out of range for m={self.m}"
            )

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        return self.alternative

    def evaluate_tops(self, tops: TopsProfile) -> Alternative:
        self._check_tops(tops)
        return self.alternative

    def to_string(self) -> str:
        return f"CONST:{self.alternative}"


@frozen
class TopsTableRule(Rule):
    """Explicit outcome table indexed by tops code; tops-only by construction."""

    n: int
    m: int
    outcomes: tuple[int, ...]

    tops_only_by_construction = True

    def __post_init__(self) -> None:
        _check_dims(self.n, self.m)
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        expected = self.m**self.n
        if len(outcomes) != expected:
            raise ValueError(
                f"tops table needs {expected} entries for (n={self.n}, m={self.m}), "
                f"got {len(outcomes)}"
            )
        if any(not 0 <= x < self.m for x in outcomes):
            raise ValueError("tops table entry out of range")

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        code = 0
        for p in profile.prefs:
            code = code * self.m + p.top
        return self.outcomes[code]

    def evaluate_tops(self, tops: TopsProfile) -> Alternative:
        self._check_tops(tops)
        code = 0
        for t in tops:
            code = code * self.m + t
        return self.outcomes[code]

    def to_string(self) -> str:
        digits = "".join(str(x) for x in self.outcomes)
        return f"TOPS:n={self.n},m={self.m}:{digits}"


@frozen
class FullTableRule(Rule):
    """Explicit outcome table indexed by profile code; no structural guarantees."""

    n: int
    m: int
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dims(self.n, self.m)
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        expected = math.factorial(self.m) ** self.n
        if len(outcomes) != expected:
            raise ValueError(
                f"full table needs {expected} entries for (n={self.n}, m={self.m}), "
                f"got {len(outcomes)}"
            )
        if any(not 0 <= x < self.m for x in outcomes):
            raise ValueError("full table entry out of range")

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        return self.outcomes[profile.code]

    def to_string(self) -> str:
        digits = "".join(str(x) for x in self.outcomes)
        return f"FULL:n={self.n},m={self.m}:{digits}"


@frozen
class BordaLexRule(Rule):
    """Borda count with ties broken toward the lowest alternative index.

    Each agent awards m-1 points to their best alternative down to 0 for
    their worst.  Depends on full rankings, so it is not tops-only for m >= 3.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        _check_dims(self.n, self.m)

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        scores = [0] * self.m
        for pref in profile.prefs:
            for depth, x in enumerate(pref.ranking):
                scores[x] += self.m - 1 - depth
        best = 0
        for x in range(1, self.m):
            if scores[x] > scores[best]:
                best = x
        return best

    def to_string(self) -> str:
        return "BORDALEX"


@frozen
class MajorityLexRule(Rule):
    """Two-alternative majority; ties go to alternative 0."""

    n: int
    m: int = 2

    tops_only_by_construction = True

    def __post_init__(self) -> None:
        check_agent_count(self.n)
        if self.m != 2:
            raise ValueError("majority rule is defined for exactly 2 alternatives")

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        return self.evaluate_tops(profile.tops)

    def evaluate_tops(self, tops: TopsProfile) -> Alternative:
        self._check_tops(tops)
        ones = sum(tops)
        return 1 if 2 * ones > self.n else 0

    def to_string(self) -> str:
        return "MAJLEX"


# ---------------------------------------------------------------------------
# Canonical rule strings.
# ---------------------------------------------------------------------------

_TABLE_HEADER = re.compile(r"n=(\d+),m=(\d+):")


def parse_rule(text: str, n: int | None = None, m: int | None = None) -> Rule:
    """Parse a canonical rule string.

    Closed forms (DICT, CONST, BORDALEX, MAJLEX) take their dimensions from
    the ``n``/``m`` arguments; table forms carry their own and must agree
    with any arguments given.  Malformed strings raise
    :class:`RuleParseError` with the offending position.
    """
    if not text:
        raise RuleParseError("empty rule string", 0)
    head, sep, rest = text.partition(":")
    if head == "TOPS" or head == "FULL":
        return _parse_table(text, head, n, m)
    if head == "DICT":
        if not sep or not rest.isdigit():
            raise RuleParseError("DICT needs a decimal agent index", len("DICT:"))
        if n is None or m is None:
            raise RuleParseError("DICT:<i> needs ambient agents and alternatives", 0)
        agent = int(rest)
        if agent >= n:
            raise RuleParseError(f"agent {agent} out of range for n={n}", len("DICT:"))
        return DictatorRule(n, m, agent)
    if head == "CONST":
        if not sep or not rest.isdigit():
            raise RuleParseError("CONST needs a decimal alternative index", len("CONST:"))
        if n is None or m is None:
            raise RuleParseError("CONST:<x> needs ambient agents and alternatives", 0)
        alt = int(rest)
        if alt >= m:
            raise RuleParseError(f"alternative {alt} out of range for m={m}", len("CONST:"))
        return ConstantRule(n, m, alt)
    if text == "BORDALEX":
        if n is None or m is None:
            raise RuleParseError("BORDALEX needs ambient agents and alternatives", 0)
        return BordaLexRule(n, m)
    if text == "MAJLEX":
        if n is None:
            raise RuleParseError("MAJLEX needs an ambient agent count", 0)
        if m not in (None, 2):
            raise RuleParseError(f"MAJLEX is a 2-alternative rule, got m={m}", 0)
        return MajorityLexRule(n)
    raise RuleParseError(f"unknown rule form {head!r}", 0)


def _parse_table(text: str, kind: str, n: int | None, m: int | None) -> Rule:
    body_start = len(kind) + 1
    match = _TABLE_HEADER.match(text, body_start)
    if not match:
        raise RuleParseError(f"{kind} header must look like 'n=<int>,m=<int>:'", body_start)
    n_decl = int(match.group(1))
    m_decl = int(match.group(2))
    if n is not None and n != n_decl:
        raise RuleParseError(f"declared n={n_decl} conflicts with n={n}", body_start)
    if m is not None and m != m_decl:
        raise RuleParseError(f"declared m={m_decl} conflicts with m={m}", body_start)
    if m_decl > 9:
        raise RuleParseError("digit-string tables support at most m=9", body_start)
    digits_start = match.end()
    digits = text[digits_start:]
    if kind == "TOPS":
        expected = m_decl**n_decl
    else:
        expected = math.factorial(m_decl) ** n_decl
    if len(digits) != expected:
        raise RuleParseError(
            f"{kind} table needs {expected} digits, got {len(digits)}",
            digits_start + len(digits),
        )
    outcomes = []
    for offset, ch in enumerate(digits):
        if not ch.isdigit() or int(ch) >= m_decl:
            raise RuleParseError(
                f"invalid outcome digit {ch!r} for m={m_decl}", digits_start + offset
            )
        outcomes.append(int(ch))
    if kind == "TOPS":
        return TopsTableRule(n_decl, m_decl, tuple(outcomes))
    return FullTableRule(n_decl, m_decl, tuple(outcomes))


# ---------------------------------------------------------------------------
# Axiom predicates with witness extraction.
# ---------------------------------------------------------------------------


@frozen
class ManipulationWitness:
    """One successful manipulation: evaluating the misreport beats sincerity."""

    profile: Profile
    agent: int
    misreport: Preference
    sincere_outcome: Alternative
    improved_outcome: Alternative

    def is_valid(self, rule: Rule) -> bool:
        """Re-validate under direct evaluation."""
        sincere = rule.evaluate(self.profile)
        deviated = rule.evaluate(self.profile.with_replaced(self.agent, self.misreport))
        return (
            sincere == self.sincere_outcome
            and deviated == self.improved_outcome
            and self.profile.prefs[self.agent].prefers(deviated, sincere)
        )


def _check_caps(rule: Rule) -> None:
    check_agent_count(rule.n)
    check_alternative_count(rule.m)


def _check_walk(rule: Rule) -> None:
    """Caps plus the profile-work budget, before a walk over the profile space."""
    _check_caps(rule)
    check_profile_work(rule.n, rule.m)


def find_unanimity_violation(rule: Rule) -> Profile | None:
    """First common-top profile whose outcome is not the shared top."""
    _check_walk(rule)
    by_top = [preferences_with_top(rule.m, x) for x in range(rule.m)]
    for x in range(rule.m):
        for combo in product(by_top[x], repeat=rule.n):
            profile = Profile(combo)
            if rule.evaluate(profile) != x:
                return profile
    return None


def is_unanimous(rule: Rule) -> bool:
    return find_unanimity_violation(rule) is None


def find_tops_only_violation(rule: Rule) -> tuple[Profile, Profile] | None:
    """Two profiles with equal tops and different outcomes, if any exist."""
    _check_walk(rule)
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


def is_tops_only(rule: Rule) -> bool:
    return rule.tops_only_by_construction or find_tops_only_violation(rule) is None


def require_tops_only(rule: Rule) -> None:
    """Raise :class:`NotTopsOnlyError` unless the rule is tops-only."""
    if not is_tops_only(rule):
        raise NotTopsOnlyError(
            f"rule {rule.to_string()} is not tops-only; the operation is undefined for it"
        )


def find_efficiency_violation(rule: Rule) -> tuple[Profile, Alternative] | None:
    """A profile and an alternative every agent strictly prefers to the outcome."""
    _check_walk(rule)
    for profile in enumerate_profiles(rule.n, rule.m):
        out = rule.evaluate(profile)
        for x in range(rule.m):
            if x != out and all(p.prefers(x, out) for p in profile.prefs):
                return profile, x
    return None


def is_efficient(rule: Rule) -> bool:
    return find_efficiency_violation(rule) is None


def efficient_via_tops(rule: Rule) -> bool:
    """Fast criterion for tops-only rules: every tops cell selects a top.

    Must agree with :func:`is_efficient` on tops-only rules; the test suite
    verifies the equivalence exhaustively.
    """
    table = as_tops_table(rule).outcomes
    return _engine.table_efficient_cells(table, _engine.space(rule.n, rule.m))


def _tops_outcome(rule: Rule, tops: TopsProfile) -> Alternative:
    if rule.tops_only_by_construction:
        return rule.evaluate_tops(tops)
    # any representative profile works once tops-onlyness is established
    prefs = tuple(preferences_with_top(rule.m, t)[0] for t in tops)
    return rule.evaluate(Profile(prefs))


def find_manipulation(rule: Rule) -> ManipulationWitness | None:
    """First manipulation in (profile code, agent, misreport code) order, found
    by ``_engine.full_table_manipulation`` on the rule's full table."""
    found = _engine.full_table_manipulation(
        as_full_table(rule).outcomes, _engine.space(rule.n, rule.m)
    )
    if found is None:
        return None
    pc, agent, q, sincere, improved = found
    profile = profile_from_code(pc, rule.n, rule.m)
    return ManipulationWitness(
        profile, agent, enumerate_preferences(rule.m)[q], sincere, improved
    )


def is_strategy_proof(rule: Rule) -> bool:
    return find_manipulation(rule) is None


def find_dictator(rule: Rule) -> int | None:
    """The dictator's index, or None; unique when it exists."""
    _check_walk(rule)
    for i in range(rule.n):
        if all(
            rule.evaluate(profile) == profile.prefs[i].top
            for profile in enumerate_profiles(rule.n, rule.m)
        ):
            return i
    return None


def _check_same_dims(f: Rule, g: Rule) -> None:
    if (f.n, f.m) != (g.n, g.m):
        raise DimensionMismatchError(
            f"cannot compare (n={f.n}, m={f.m}) with (n={g.n}, m={g.m})"
        )


def extensionally_equal(f: Rule, g: Rule) -> bool:
    """Same dimensions and identical outcome on every profile."""
    _check_same_dims(f, g)
    _check_walk(f)
    return all(
        f.evaluate(profile) == g.evaluate(profile)
        for profile in enumerate_profiles(f.n, f.m)
    )


def as_tops_table(rule: Rule) -> TopsTableRule:
    """Materialize a (verified) tops-only rule as an explicit tops table."""
    _check_caps(rule)
    if isinstance(rule, TopsTableRule):
        return rule
    require_tops_only(rule)
    outcomes = tuple(
        _tops_outcome(rule, tops_from_code(tc, rule.n, rule.m))
        for tc in range(rule.m**rule.n)
    )
    return TopsTableRule(rule.n, rule.m, outcomes)


def as_full_table(rule: Rule) -> FullTableRule:
    """Materialize any rule as an explicit per-profile table.

    A rule tops-only by construction chooses from the tops alone, so every
    profile code reads its outcome off the rule's tops table at the profile's
    tops code; any other rule is evaluated at every profile.
    """
    _check_walk(rule)
    if rule.tops_only_by_construction:
        table = as_tops_table(rule).outcomes
        tops_codes = _engine.profile_tops_codes(rule.n, rule.m)
        outcomes = tuple(map(table.__getitem__, tops_codes))
    else:
        outcomes = tuple(rule.evaluate(p) for p in enumerate_profiles(rule.n, rule.m))
    return FullTableRule(rule.n, rule.m, outcomes)
