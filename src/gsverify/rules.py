"""Social choice rules at fixed (n, m) and the classic axioms as decidable predicates.

A rule is a total deterministic map from profiles to alternatives.  Concrete
representations: explicit tables over tops profiles or over full profiles,
plus a small closed-form library (dictator, constant, Borda and two-candidate
majority with lexicographic tie-breaks), and the coalesced and restricted
rules that ``constructions.coalesce`` and ``restrict`` build from a base
rule.  The census and the rule-stream checks never build these objects, so
only a run that parses, evaluates or certifies a rule compiles this module.

Every axiom predicate scans the rule's full table, ``as_full_table(rule)``:
the one walk over the whole profile space for one rule, and the one place
the caps and the profile-work budget are checked.  A full table passed in
comes back as it is, so a caller asking several questions builds it once.
Unanimity, tops-onlyness and dictatorship read the tops code of each profile
(``_engine.profile_tops_codes``), efficiency the enumerated dominated masks of
``_engine.profile_rows``, and strategy-proofness runs the integer scan
``_engine.full_table_manipulation``.  A witness is decoded to ``Profile``
objects only on failure, in a fixed order: (shared top, profile code) for
unanimity, (tops code, profile code) for tops-onlyness, and profile code
first for efficiency and strategy-proofness (then agent and misreport code),
so failures reproduce byte for byte.
"""

from __future__ import annotations

import abc
import math
import re
from itertools import product

from . import _engine
from ._value import frozen
from .errors import DimensionMismatchError, NotTopsOnlyError, RuleParseError
from .prefs import (
    Alternative,
    Preference,
    Profile,
    TopsProfile,
    _decode_preference,
    _decode_profile,
    check_agent_count,
    check_dims,
    check_profile_work,
    enumerate_profiles,
)


class Rule(abc.ABC):
    """A deterministic total map from profiles to alternatives.

    Subclasses declare their (n, m) and whether tops-onlyness holds by
    construction; structurally tops-only rules also expose ``evaluate_tops``.
    """

    n: int
    m: int
    tops_only_by_construction: bool = False  # overridden by the tops-only forms

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


@frozen
class DictatorRule(Rule):
    """Always selects the dictator agent's top."""

    n: int
    m: int
    agent: int

    tops_only_by_construction = True

    def __post_init__(self) -> None:
        check_dims(self.n, self.m)
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
        check_dims(self.n, self.m)
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
        check_dims(self.n, self.m)
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
        return _engine._tops_string(self.n, self.m, self.outcomes)


@frozen
class FullTableRule(Rule):
    """Explicit outcome table indexed by profile code; no structural guarantees."""

    n: int
    m: int
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        check_dims(self.n, self.m)
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
        check_dims(self.n, self.m)

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
# Coalescing and restriction (``constructions.coalesce`` and ``restrict``).
# ---------------------------------------------------------------------------


@frozen
class _DerivedRule(Rule):
    """A rule built from a base rule; its string is its materialized table."""

    base: Rule

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def tops_only_by_construction(self) -> bool:
        return self.base.tops_only_by_construction

    def to_string(self) -> str:
        table = self if self.tops_only_by_construction else as_full_table(self)
        if is_tops_only(table):
            return as_tops_table(table).to_string()
        return table.to_string()


@frozen
class CoalescedRule(_DerivedRule):
    """An (n-1)-agent rule feeding its first preference into two slots of the base."""

    def __post_init__(self) -> None:
        if self.base.n < 3:
            raise ValueError("coalescing needs a base rule with at least 3 agents")

    @property
    def n(self) -> int:
        return self.base.n - 1

    def evaluate(self, profile: Profile):
        self._check_profile(profile)
        prefs = profile.prefs
        return self.base.evaluate(Profile((prefs[0], prefs[0]) + prefs[1:]))

    def evaluate_tops(self, tops):
        self._check_tops(tops)
        return self.base.evaluate_tops((tops[0], tops[0]) + tuple(tops[1:]))


@frozen
class RestrictedRule(_DerivedRule):
    """A 2-agent rule obtained by pinning the base rule's agents 3..n."""

    fixed: tuple[Preference, ...]

    def __post_init__(self) -> None:
        fixed = tuple(self.fixed)
        object.__setattr__(self, "fixed", fixed)
        if self.base.n < 3:
            raise ValueError("restriction needs a base rule with at least 3 agents")
        if len(fixed) != self.base.n - 2:
            raise ValueError(
                f"need {self.base.n - 2} fixed preferences, got {len(fixed)}"
            )
        if any(p.m != self.base.m for p in fixed):
            raise ValueError("fixed preferences disagree with the base alternative count")

    @property
    def n(self) -> int:
        return 2

    def evaluate(self, profile: Profile):
        self._check_profile(profile)
        return self.base.evaluate(Profile(profile.prefs + self.fixed))

    def evaluate_tops(self, tops):
        self._check_tops(tops)
        return self.base.evaluate_tops(tuple(tops) + tuple(p.top for p in self.fixed))


# ---------------------------------------------------------------------------
# Canonical rule strings.
# ---------------------------------------------------------------------------

_TABLE_HEADER = re.compile(r"n=([0-9]+),m=([0-9]+):")


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
        if not sep or not (rest.isascii() and rest.isdigit()):
            raise RuleParseError("DICT needs a decimal agent index", len("DICT:"))
        if n is None or m is None:
            raise RuleParseError("DICT:<i> needs ambient agents and alternatives", 0)
        agent = int(rest)
        if agent >= n:
            raise RuleParseError(f"agent {agent} out of range for n={n}", len("DICT:"))
        return DictatorRule(n, m, agent)
    if head == "CONST":
        if not sep or not (rest.isascii() and rest.isdigit()):
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
    check_dims(n_decl, m_decl)  # before the table length, which grows with them
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
        if not (ch.isascii() and ch.isdigit()) or int(ch) >= m_decl:
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


def find_unanimity_violation(rule: Rule) -> Profile | None:
    """First common-top profile whose outcome is not the shared top, in
    (shared top, profile code) order."""
    outcomes = as_full_table(rule).outcomes
    tops_codes = _engine.profile_tops_codes(rule.n, rule.m)
    shared = dict(_engine.space(rule.n, rule.m).unanimous_cells)  # tops code -> top
    # agent 0's preferences with top x hold consecutive rank codes, so the
    # common-top-x profiles all come before those with a higher shared top
    for pc, (tc, out) in enumerate(zip(tops_codes, outcomes)):
        if shared.get(tc, out) != out:
            return _decode_profile(pc, rule.n, rule.m)
    return None


def is_unanimous(rule: Rule) -> bool:
    return find_unanimity_violation(rule) is None


def _cell_firsts(tops_codes: tuple[int, ...], cells: int) -> list[int]:
    """The lowest profile code of every tops cell, in tops-code order."""
    return list(map(tops_codes.index, range(cells)))


def find_tops_only_violation(rule: Rule) -> tuple[Profile, Profile] | None:
    """Two profiles with equal tops and different outcomes, if any exist: in
    the first tops cell (by tops code) whose outcomes differ, the cell's first
    profile and its first profile with another outcome."""
    outcomes = as_full_table(rule).outcomes
    tops_codes = _engine.profile_tops_codes(rule.n, rule.m)
    firsts = _cell_firsts(tops_codes, rule.m**rule.n)
    # a cell's profile codes are not contiguous, so order by (tops code, code)
    bad = [
        pc for pc, (tc, out) in enumerate(zip(tops_codes, outcomes))
        if out != outcomes[firsts[tc]]
    ]
    if not bad:
        return None
    pc = min(bad, key=tops_codes.__getitem__)
    first = firsts[tops_codes[pc]]
    return _decode_profile(first, rule.n, rule.m), _decode_profile(pc, rule.n, rule.m)


def is_tops_only(rule: Rule) -> bool:
    return rule.tops_only_by_construction or find_tops_only_violation(rule) is None


def require_tops_only(rule: Rule) -> None:
    """Raise :class:`NotTopsOnlyError` unless the rule is tops-only."""
    if not is_tops_only(rule):
        raise NotTopsOnlyError(
            f"rule {rule.to_string()} is not tops-only; the operation is undefined for it"
        )


def find_efficiency_violation(rule: Rule) -> tuple[Profile, Alternative] | None:
    """A profile and an alternative every agent strictly prefers to the outcome:
    the first profile code whose outcome is set in its row's enumerated
    dominated mask, and the lowest alternative that dominates it there."""
    outcomes = as_full_table(rule).outcomes
    rows = _engine.profile_rows(rule.n, rule.m)
    for pc, ((_tc, dominated, _agents), out) in enumerate(zip(rows, outcomes)):
        if (dominated >> out) & 1:
            profile = _decode_profile(pc, rule.n, rule.m)
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
    sp = _engine.space(rule.n, rule.m)
    # a block of one rule: bit 0 is the rule's verdict
    block = _engine.Block(sp, bytes(as_tops_table(rule).outcomes), (0,))
    return bool(_engine.block_efficient_cells(block, 1))


def find_manipulation(rule: Rule) -> ManipulationWitness | None:
    """First manipulation in (profile code, agent, misreport code) order, found
    by ``_engine.full_table_manipulation`` on the rule's full table."""
    found = _engine.full_table_manipulation(
        as_full_table(rule).outcomes, _engine.space(rule.n, rule.m)
    )
    if found is None:
        return None
    pc, agent, q, sincere, improved = found
    profile = _decode_profile(pc, rule.n, rule.m)
    return ManipulationWitness(
        profile, agent, _decode_preference(q, rule.m), sincere, improved
    )


def is_strategy_proof(rule: Rule) -> bool:
    return find_manipulation(rule) is None


def find_dictator(rule: Rule) -> int | None:
    """The dictator's index, or None; unique when it exists."""
    outcomes = as_full_table(rule).outcomes
    tops_codes = _engine.profile_tops_codes(rule.n, rule.m)
    for i, dictated in enumerate(_engine.space(rule.n, rule.m).dictator_tables):
        if tuple(map(dictated.__getitem__, tops_codes)) == outcomes:
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
    return as_full_table(f).outcomes == as_full_table(g).outcomes


def as_tops_table(rule: Rule) -> TopsTableRule:
    """Materialize a (verified) tops-only rule as an explicit tops table.

    A rule tops-only by construction is evaluated at every tops profile; any
    other rule reads each cell's outcome off its full table at the cell's
    first profile.
    """
    if isinstance(rule, TopsTableRule):
        return rule
    if rule.tops_only_by_construction:
        outcomes = tuple(map(rule.evaluate_tops, product(range(rule.m), repeat=rule.n)))
    else:
        full = as_full_table(rule)
        if not is_tops_only(full):
            require_tops_only(rule)  # raises, naming the rule itself
        firsts = _cell_firsts(_engine.profile_tops_codes(rule.n, rule.m), rule.m**rule.n)
        outcomes = tuple(map(full.outcomes.__getitem__, firsts))
    return TopsTableRule(rule.n, rule.m, outcomes)


def as_full_table(rule: Rule) -> FullTableRule:
    """Materialize any rule as an explicit per-profile table.

    This is the one walk over a rule's whole profile space, so the caps and
    the profile-work budget are checked here, once; the predicates above
    scan its table.  A full table comes back as it is.  A rule tops-only by
    construction chooses from the tops alone, so every profile code reads
    its outcome off the rule's tops table at the profile's tops code; any
    other rule is evaluated at every profile.
    """
    check_dims(rule.n, rule.m)
    check_profile_work(rule.n, rule.m)
    if isinstance(rule, FullTableRule):
        return rule
    if rule.tops_only_by_construction:
        table = as_tops_table(rule).outcomes
        tops_codes = _engine.profile_tops_codes(rule.n, rule.m)
        outcomes = tuple(map(table.__getitem__, tops_codes))
    else:
        outcomes = tuple(map(rule.evaluate, enumerate_profiles(rule.n, rule.m)))
    # built without ``__post_init__``, which would read the caps again
    full = object.__new__(FullTableRule)
    vars(full).update(n=rule.n, m=rule.m, outcomes=outcomes)
    return full
