"""Strict preferences, profiles, and preference domains over a finite alternative set.

Alternatives are dense 0-based indices ``0 .. m-1``; text forms name them
``a``, ``b``, ``c``, ... in index order.  A preference is a permutation of
the alternatives listed best first, canonically identified by its
lexicographic permutation rank (``rank_code``).  A profile is one preference
per agent; its ``code`` is the mixed-radix number of the per-agent rank
codes with agent 0 most significant, so enumeration order is deterministic
everywhere.  All values are immutable.

Text forms round-trip exactly: a preference as comma-separated names best
first (``"a,b,c"``), a profile as preferences joined by ``"|"``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from functools import cached_property
from itertools import permutations, product

from ._value import frozen
from .errors import BudgetExceededError, CapExceededError

Alternative = int
TopsProfile = tuple[int, ...]

# the names of alternatives 0, 1, ...; importing string for them costs a regex compile
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

DEFAULT_MAX_ALTERNATIVES = 6
DEFAULT_MAX_AGENTS = 5

MAX_ALTERNATIVES_ENV = "GSVERIFY_MAX_ALTS"
MAX_AGENTS_ENV = "GSVERIFY_MAX_AGENTS"

# (3, 4) needs 995328 and fits; (2, 5) needs 3456000 and (4, 4) 31850496
DEFAULT_MAX_PROFILE_WORK = 2_000_000
MAX_PROFILE_WORK_ENV = "GSVERIFY_MAX_PROFILE_WORK"


def max_alternatives() -> int:
    """Current cap on the alternative count m; guards m! blowup."""
    return int(os.environ.get(MAX_ALTERNATIVES_ENV, DEFAULT_MAX_ALTERNATIVES))


def max_agents() -> int:
    """Current cap on the agent count n; guards (m!)^n blowup."""
    return int(os.environ.get(MAX_AGENTS_ENV, DEFAULT_MAX_AGENTS))


def check_alternative_count(m: int, cap: int | None = None) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 alternatives, got m={m}")
    limit = max_alternatives() if cap is None else cap
    if m > limit:
        raise CapExceededError(
            f"m={m} exceeds the alternative cap {limit} "
            f"({math.factorial(m)} orderings); set {MAX_ALTERNATIVES_ENV} to override"
        )


def check_agent_count(n: int, cap: int | None = None) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 agents, got n={n}")
    limit = max_agents() if cap is None else cap
    if n > limit:
        raise CapExceededError(
            f"n={n} exceeds the agent cap {limit}; set {MAX_AGENTS_ENV} to override"
        )


def profile_work_budget() -> int:
    """Current budget on the work of one walk over the profile space."""
    return int(os.environ.get(MAX_PROFILE_WORK_ENV, DEFAULT_MAX_PROFILE_WORK))


def check_profile_work(n: int, m: int) -> None:
    """Reject (n, m) before a walk over its whole profile space starts; the
    work is that of one strategy-proofness scan, (m!)^n profiles x n agents
    x m! misreports."""
    fact = math.factorial(m)
    work = fact**n * n * fact
    limit = profile_work_budget()
    if work > limit:
        raise BudgetExceededError(
            f"a walk over the profile space at (n={n}, m={m}) needs {work} steps "
            f"({fact}**{n} profiles x {n} agents x {fact} misreports), over the "
            f"budget of {limit}; raise {MAX_PROFILE_WORK_ENV}"
        )


def alternative_name(x: Alternative) -> str:
    """Letter name of an alternative index: 0 -> 'a', 1 -> 'b', ..."""
    if not 0 <= x < len(_LETTERS):
        raise ValueError(f"alternative index {x} has no letter name")
    return _LETTERS[x]


def alternative_index(name: str) -> Alternative:
    """Inverse of :func:`alternative_name`; accepts surrounding whitespace."""
    token = name.strip()
    if len(token) != 1 or token not in _LETTERS:
        raise ValueError(f"not an alternative name: {name!r}")
    return _LETTERS.index(token)


@frozen
class Preference:
    """A strict total order over m alternatives, best first.

    ``ranking`` must be a permutation of ``range(m)``.  Instances are
    hashable and ordered by nothing; use ``rank_code`` for canonical order.
    """

    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        ranking = tuple(self.ranking)
        object.__setattr__(self, "ranking", ranking)
        if sorted(ranking) != list(range(len(ranking))):
            raise ValueError(f"not a permutation of 0..{len(ranking) - 1}: {ranking}")
        if len(ranking) < 2:
            raise ValueError("a preference needs at least 2 alternatives")

    @property
    def m(self) -> int:
        return len(self.ranking)

    @property
    def top(self) -> Alternative:
        """The best alternative."""
        return self.ranking[0]

    @cached_property
    def rank_code(self) -> int:
        """Lexicographic permutation rank in [0, m!), 0 for the identity."""
        code = 0
        r = self.ranking
        m = len(r)
        for i, x in enumerate(r):
            smaller_later = sum(1 for y in r[i + 1 :] if y < x)
            code = code * (m - i) + smaller_later
        return code

    def rank_of(self, x: Alternative) -> int:
        """Position of x in the ranking; 0 means best."""
        self._check_alternative(x)
        return self.ranking.index(x)

    def prefers(self, x: Alternative, y: Alternative) -> bool:
        """True iff x is ranked strictly above y (false on x == y)."""
        return self.rank_of(x) < self.rank_of(y)

    def weakly_prefers(self, x: Alternative, y: Alternative) -> bool:
        """The weak relation: true on equality, else the strict comparison."""
        self._check_alternative(y)
        return x == y or self.prefers(x, y)

    def _check_alternative(self, x: Alternative) -> None:
        if not 0 <= x < len(self.ranking):
            raise ValueError(f"alternative {x} out of range for m={len(self.ranking)}")

    def to_text(self) -> str:
        return ",".join(alternative_name(x) for x in self.ranking)

    @classmethod
    def from_text(cls, text: str) -> "Preference":
        return cls(tuple(alternative_index(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return self.to_text()


def encode_preference(p: Preference) -> int:
    """Canonical integer code of a preference (lexicographic rank)."""
    return p.rank_code


def decode_preference(code: int, m: int) -> Preference:
    """Inverse of :func:`encode_preference` at a given m."""
    check_alternative_count(m)
    total = math.factorial(m)
    if not 0 <= code < total:
        raise ValueError(f"preference code {code} out of range [0, {total})")
    return _decode_preference(code, m)


def _decode_preference(code: int, m: int) -> Preference:
    """:func:`decode_preference` of a code in range, with m already checked."""
    digits = []
    rest = code
    for radix in range(1, m + 1):
        rest, d = divmod(rest, radix)
        digits.append(d)
    digits.reverse()
    pool = list(range(m))
    return Preference(tuple(pool.pop(d) for d in digits))


def enumerate_preferences(m: int, cap: int | None = None) -> list[Preference]:
    """All m! strict preferences in ascending rank-code order."""
    check_alternative_count(m, cap)
    return [Preference(r) for r in permutations(range(m))]


def preferences_with_top(m: int, x: Alternative, cap: int | None = None) -> list[Preference]:
    """The (m-1)! preferences whose top is x, in ascending rank-code order."""
    if not 0 <= x < m:
        raise ValueError(f"alternative {x} out of range for m={m}")
    return [p for p in enumerate_preferences(m, cap) if p.top == x]


@frozen
class Profile:
    """An ordered list of n preferences over a shared alternative set."""

    prefs: tuple[Preference, ...]

    def __post_init__(self) -> None:
        prefs = tuple(self.prefs)
        object.__setattr__(self, "prefs", prefs)
        if len(prefs) < 2:
            raise ValueError("a profile needs at least 2 agents")
        m0 = prefs[0].m
        for p in prefs:  # a loop, not any(): the hottest constructor
            if p.m != m0:
                raise ValueError("profile preferences disagree on the alternative count")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.prefs[0].m

    @property
    def tops(self) -> TopsProfile:
        """The vector of per-agent best alternatives."""
        return tuple(p.top for p in self.prefs)

    def with_replaced(self, agent: int, pref: Preference) -> "Profile":
        """A new profile with ``agent``'s preference swapped for ``pref``."""
        self._check_agent(agent)
        if pref.m != self.m:
            raise ValueError(f"replacement is over m={pref.m}, profile over m={self.m}")
        prefs = list(self.prefs)
        prefs[agent] = pref
        return Profile(tuple(prefs))

    def supporters(self, x: Alternative) -> frozenset[int]:
        """Agents whose top is x; over all x these sets partition the agents."""
        if not 0 <= x < self.m:
            raise ValueError(f"alternative {x} out of range for m={self.m}")
        return frozenset(i for i, p in enumerate(self.prefs) if p.top == x)

    @cached_property
    def code(self) -> int:
        """Mixed-radix profile code over rank codes, agent 0 most significant."""
        fact = math.factorial(self.m)
        code = 0
        for p in self.prefs:
            code = code * fact + p.rank_code
        return code

    def _check_agent(self, i: int) -> None:
        if not 0 <= i < len(self.prefs):
            raise ValueError(f"agent index {i} out of range for n={len(self.prefs)}")

    def to_text(self) -> str:
        return "|".join(p.to_text() for p in self.prefs)

    @classmethod
    def from_text(cls, text: str) -> "Profile":
        return cls(tuple(Preference.from_text(part) for part in text.split("|")))

    def __str__(self) -> str:
        return self.to_text()


def profile_from_code(code: int, n: int, m: int) -> Profile:
    """Inverse of :attr:`Profile.code` at given (n, m)."""
    check_agent_count(n)
    check_alternative_count(m)
    total = math.factorial(m) ** n
    if not 0 <= code < total:
        raise ValueError(f"profile code {code} out of range [0, {total})")
    return _decode_profile(code, n, m)


def _decode_profile(code: int, n: int, m: int) -> Profile:
    """:func:`profile_from_code` of a code in range, with n and m already checked."""
    fact = math.factorial(m)
    codes = []
    rest = code
    for _ in range(n):
        rest, r = divmod(rest, fact)
        codes.append(r)
    codes.reverse()
    return Profile(tuple(_decode_preference(c, m) for c in codes))


def enumerate_profiles(n: int, m: int) -> Iterator[Profile]:
    """All (m!)^n profiles in ascending profile-code order."""
    check_agent_count(n)
    check_alternative_count(m)
    prefs = enumerate_preferences(m, cap=m)  # m is checked just above

    def gen() -> Iterator[Profile]:
        for combo in product(prefs, repeat=n):
            yield Profile(combo)

    return gen()


@frozen
class PreferenceDomain:
    """A non-empty set of preferences over a shared alternative set."""

    members: frozenset[Preference]

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a preference domain cannot be empty")
        if len({p.m for p in members}) != 1:
            raise ValueError("domain members disagree on the alternative count")

    @property
    def m(self) -> int:
        return next(iter(self.members)).m

    @classmethod
    def universal(cls, m: int, cap: int | None = None) -> "PreferenceDomain":
        """The full domain of all m! strict preferences."""
        return cls(frozenset(enumerate_preferences(m, cap)))

    def sorted_members(self) -> list[Preference]:
        return sorted(self.members, key=lambda p: p.rank_code)


def is_minimally_rich(domain: PreferenceDomain) -> bool:
    """True iff every alternative is the top of some domain member."""
    tops = {p.top for p in domain.members}
    return tops == set(range(domain.m))


def satisfies_property_t_star(domain: PreferenceDomain) -> bool:
    """Direct evaluation of the T* quantifier nest over the domain.

    For each member p and each alternative x other than p's top: every
    alternative that all same-top members rank above x must, in some member
    topped by x, stay above everything p ranks below x.
    """
    alts = range(domain.m)
    members = domain.sorted_members()
    for p in members:
        same_top = [q for q in members if q.top == p.top]
        for x in alts:
            if x == p.top:
                continue
            always_above_x = [y for y in alts if all(q.prefers(y, x) for q in same_top)]
            below_x = [z for z in alts if p.prefers(x, z)]
            for ybar in always_above_x:
                if not any(
                    q.top == x and all(q.prefers(ybar, z) for z in below_x)
                    for q in members
                ):
                    return False
    return True
