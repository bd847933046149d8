"""Per-profile classification into manipulable or dictatorial, and the two orders.

A profile is dictatorial for a rule when no agent whose top was not selected
can move the outcome by any unilateral misreport.  A profile is manipulable
for a tops-only rule when some agent, after swapping to a preference with the
same top, can manipulate at the swapped profile.  For tops-only rules every
profile is exactly one of the two; the census layer verifies that partition
exhaustively rather than assuming it.

Rules compare by cardinality: ``f`` is at least as manipulable as ``g`` when
``|M_f| >= |M_g|`` and at least as dictatorial when ``|D_f| >= |D_g|``.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable

from . import _engine
from ._value import frozen
from .prefs import Preference, Profile, enumerate_preferences, preferences_with_top
from .rules import (
    ManipulationWitness,
    Rule,
    _check_caps,
    _check_same_dims,
    as_full_table,
    as_tops_table,
    find_dictator,
    is_efficient,
    is_strategy_proof,
    require_tops_only,
)


class Verdict(enum.Enum):
    DICTATORIAL = "dictatorial"
    MANIPULABLE = "manipulable"


@frozen
class ProfileClassification:
    """One profile's verdict with supporting evidence.

    ``witness`` is present exactly for manipulable profiles; ``violator`` is
    the (agent, misreport) pair that shows the profile is not dictatorial.
    """

    profile: Profile
    verdict: Verdict
    witness: ManipulationWitness | None
    violator: tuple[int, Preference] | None

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.MANIPULABLE) != (self.witness is not None):
            raise ValueError("manipulable verdicts carry a witness, others do not")
        if self.verdict is Verdict.DICTATORIAL and self.violator is not None:
            raise ValueError("dictatorial verdicts carry no violator")


@frozen
class ClassificationSummary:
    """Counts (and optionally bitsets) of manipulable and dictatorial profiles."""

    rule: str
    n: int
    m: int
    m_count: int
    d_count: int
    total: int
    unanimous: bool
    m_set: int | None = None
    d_set: int | None = None


def find_dictatorial_violation(
    rule: Rule, profile: Profile
) -> tuple[int, Preference] | None:
    """First (agent, misreport) moving the outcome for a non-top-winning agent.

    Defined for any rule; ``None`` means the profile is dictatorial.
    """
    _check_caps(rule)
    out = rule.evaluate(profile)
    misreports = enumerate_preferences(profile.m)
    for i in range(profile.n):
        if profile.prefs[i].top == out:
            continue
        for q in misreports:
            if rule.evaluate(profile.with_replaced(i, q)) != out:
                return i, q
    return None


def is_dictatorial_profile(rule: Rule, profile: Profile) -> bool:
    return find_dictatorial_violation(rule, profile) is None


def find_profile_manipulation(
    rule: Rule, profile: Profile
) -> ManipulationWitness | None:
    """A manipulation at a same-top variant of the profile, if one exists.

    Only defined for tops-only rules; the witness profile is the varied
    profile where the stand-in preference replaced the agent's own.
    """
    _check_caps(rule)
    require_tops_only(rule)
    misreports = enumerate_preferences(profile.m)
    for i in range(profile.n):
        ti = profile.prefs[i].top
        for stand_in in preferences_with_top(profile.m, ti):
            varied = profile.with_replaced(i, stand_in)
            sincere = rule.evaluate(varied)
            for q in misreports:
                alt = rule.evaluate(varied.with_replaced(i, q))
                if stand_in.prefers(alt, sincere):
                    return ManipulationWitness(varied, i, q, sincere, alt)
    return None


def is_manipulable_profile(rule: Rule, profile: Profile) -> bool:
    return find_profile_manipulation(rule, profile) is not None


def classify_profile(rule: Rule, profile: Profile) -> ProfileClassification:
    """The verdict for one profile under a tops-only rule, with evidence."""
    require_tops_only(rule)
    violator = find_dictatorial_violation(rule, profile)
    if violator is None:
        return ProfileClassification(profile, Verdict.DICTATORIAL, None, None)
    witness = find_profile_manipulation(rule, profile)
    if witness is None:
        raise RuntimeError(
            "profile is neither dictatorial nor manipulable; "
            "this cannot happen for a tops-only rule"
        )
    return ProfileClassification(profile, Verdict.MANIPULABLE, witness, violator)


def classify_all(
    rule: Rule, *, materialize_sets: bool = False, method: str = "cells"
) -> ClassificationSummary:
    """Classify every profile and summarize the counts.

    ``method="cells"`` exploits that both verdicts are constant on each
    same-tops cell of the profile space; ``method="scan"`` runs the
    definitional per-profile checks instead.  Both must agree and the test
    suite compares them.
    """
    _check_caps(rule)
    sp = _engine.space(rule.n, rule.m)
    # a block of one rule: each bitset below is that rule's bit
    block = _engine.Block(sp, bytes(as_tops_table(rule).outcomes), (0,))
    if method == "cells":
        nondictatorial, (m_count,), (d_count,) = _engine.block_cell_masks(block)
        m_mask = sum(bit << tc for tc, bit in enumerate(nondictatorial))
        d_mask = ((1 << sp.tops_count) - 1) ^ m_mask
        d_set = m_set = None
        if materialize_sets:
            d_set = _engine.expand_cells_to_profiles(sp, d_mask)
            m_set = _engine.expand_cells_to_profiles(sp, m_mask)
    elif method == "scan":
        dictatorial, manipulable = _engine.block_profile_verdicts(block)
        d_set = sum(bit << pc for pc, bit in enumerate(dictatorial))
        m_set = sum(bit << pc for pc, bit in enumerate(manipulable))
        not_one = (d_set & m_set) | ((1 << sp.profile_count) - 1) & ~(d_set | m_set)
        if not_one:
            raise RuntimeError(
                f"profile code {(not_one & -not_one).bit_length() - 1} is not exactly "
                "one of dictatorial/manipulable; rule is not tops-only"
            )
        d_count, m_count = d_set.bit_count(), m_set.bit_count()
        if not materialize_sets:
            d_set = m_set = None
    else:
        raise ValueError(f"unknown classification method {method!r}")
    return ClassificationSummary(
        rule=rule.to_string(),
        n=rule.n,
        m=rule.m,
        m_count=m_count,
        d_count=d_count,
        total=sp.profile_count,
        unanimous=bool(_engine.block_unanimous(block, 1)),
        m_set=m_set,
        d_set=d_set,
    )


def manipulable_profile_count(rule: Rule) -> int:
    """|M_f| for a tops-only rule."""
    return classify_all(rule).m_count


def dictatorial_profile_count(rule: Rule) -> int:
    """|D_f| for any rule: by tops cells for a rule tops-only by construction,
    else by the definitional per-profile check over its full table."""
    if rule.tops_only_by_construction:
        return classify_all(rule).d_count
    return _engine.full_table_dictatorial_count(
        as_full_table(rule).outcomes, _engine.space(rule.n, rule.m)
    )


def at_least_as_manipulable(f: Rule, g: Rule) -> bool:
    """|M_f| >= |M_g|; both rules must be tops-only."""
    _check_same_dims(f, g)
    return manipulable_profile_count(f) >= manipulable_profile_count(g)


def at_least_as_dictatorial(f: Rule, g: Rule) -> bool:
    """|D_f| >= |D_g|; defined for arbitrary rules."""
    _check_same_dims(f, g)
    return dictatorial_profile_count(f) >= dictatorial_profile_count(g)


def check_duality(f: Rule, g: Rule) -> bool:
    """Whether (f at least as dictatorial as g) iff (g at least as manipulable as f).

    Holds for every pair of tops-only rules; exposed as a checkable oracle.
    """
    _check_same_dims(f, g)
    return at_least_as_dictatorial(f, g) == at_least_as_manipulable(g, f)


def remark_strategyproof_minimal(f: Rule, pool: Iterable[Rule]) -> bool:
    """Check that f is strategy-proof iff every pool rule is at least as
    manipulable as f, and iff |M_f| = 0."""
    mf = manipulable_profile_count(f)
    sp = is_strategy_proof(f)
    pool_side = all(manipulable_profile_count(g) >= mf for g in pool)
    return sp == pool_side and sp == (mf == 0)


def remark_dictatorial_maximal(f: Rule, pool: Iterable[Rule]) -> bool:
    """Check that a tops-only efficient f is dictatorial iff it is at least as
    dictatorial as every pool rule, and iff every profile is dictatorial for it."""
    require_tops_only(f)
    if not is_efficient(f):
        raise ValueError(
            f"rule {f.to_string()} is not efficient; "
            "the maximality characterization needs tops-only efficient rules"
        )
    df = dictatorial_profile_count(f)
    total = math.factorial(f.m) ** f.n
    dictatorial = find_dictator(f) is not None
    pool_side = all(df >= dictatorial_profile_count(g) for g in pool)
    return dictatorial == pool_side and dictatorial == (df == total)


# ---------------------------------------------------------------------------
# Bitsets over profile codes.
# ---------------------------------------------------------------------------


def _checked_bitset(bits: int) -> int:
    if bits < 0:
        raise ValueError(f"a profile-code bitset is non-negative, got {bits}")
    return bits


def bitset_codes(bits: int) -> list[int]:
    """Ascending profile codes present in a bitset."""
    return _engine.bit_indices(_checked_bitset(bits))


def bitset_to_hex(bits: int, total: int) -> str:
    """Fixed-width hex form of a bitset over ``total`` profile codes."""
    if _checked_bitset(bits) >> total:
        raise ValueError(f"a bitset over {total} profile codes has bit {bits.bit_length() - 1}")
    width = max(1, (total + 3) // 4)
    return format(bits, f"0{width}x")


def hex_to_bitset(text: str) -> int:
    """The bitset of a ``bitset_to_hex`` form: hex digits only."""
    bits = _checked_bitset(int(text, 16))
    if text.strip("0123456789abcdefABCDEF"):  # a sign, prefix, "_" or space
        raise ValueError(f"a hex bitset is hex digits only, got {text!r}")
    return bits
