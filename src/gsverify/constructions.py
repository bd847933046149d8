"""Rule constructions, the tops-table census engine, and the verification suites.

The census enumerates the tops-table rule space at fixed (n, m) as base-m
digit strings over the m**n tops cells, counts the cascade
total -> unanimous -> efficient -> strategy-proof -> dictatorial, and in
exhaustive mode compares the strategy-proof survivors element-wise against
the dictatorships.  Quantified claims about "all rules" are checked over this
tops-table space plus the closed-form library; full-table rule spaces are
never enumerated (3**36 rules already at n=2, m=3), and every report records
that restriction.

Rule-space exhaustion is guarded by a budget (``GSVERIFY_MAX_RULE_SPACE``);
larger spaces run in sampled mode with an explicit seed, and sampled runs
with the same seed reproduce byte for byte.  Every rule walk reads the one
rule stream, ``_iter_rule_blocks``, a block of at most ``_BLOCK_RULES``
rules at a time: the rules' digits back to back in one ``bytes``, with their
codes.  Exhaustive blocks are runs of ascending codes built from their
shared leading digits and one table of all k-digit suffixes; sampled blocks
are consecutive slices of the ``randrange(m)``-per-tops-cell digits of
``random.Random(seed)``, drawn a block of generator words at a time (the
tests pin them to the ``randrange`` loop).  ``_scan_rules`` is the one
runner that splits an exhaustive stream over worker processes (the census
and L5 use it); it merges the parts in code order and stops where a serial
scan stops, so no report depends on ``workers``.

Within a block, bit r of every bitset stands for rule r.  The block's
columns (``_engine.block_columns``) are computed once, and every cascade
stage is a bitset over them: ``_stage_mask`` gives the rules of a bitset
passing one filter, from the block predicates of ``_engine`` (unanimous,
cell-efficient, dictatorial), and "strategy-proof" cuts just those rules out
of the block for ``_engine.block_manipulable``, which decides every
strategy-proofness question.  ``_filter_rules`` maps blocks to the blocks of
their survivors (``enumerate_tops_only_rules`` and the exhaustive pool of L4
and R2); the census, L1, C1 and L3 keep the bitsets and count them with
``int.bit_count``, ``census_rows`` yields them per block as one flags byte
per rule (``_engine.bit_flags``), and a census stage that is also a
prefilter reuses the prefilter's bitset.  L4, L5 and C2 read per-profile
verdicts (``block_profile_verdicts``), R1, R2 and ``census_rows`` read cell
counts (``block_cell_masks``), and L1, C1 and L3 read Pareto efficiency from
the profile rows (``block_efficient_definitional``).  L1 and C1 are one scan
(``_strategy_proof_unanimous_scan``) with their own counterexample kind and
closed-form test.  C2 counts |M_f| and |D_f| apart, so the duality it
checks is not built into its counts.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, islice, product
from operator import and_, or_
from time import perf_counter

from . import _engine
from ._value import DefaultFactory, frozen
from .errors import BudgetExceededError, UnknownLemmaError
from .prefs import (
    Preference,
    Profile,
    check_agent_count,
    check_alternative_count,
    check_profile_work,
    profile_from_code,
)
from .rules import (
    BordaLexRule,
    ConstantRule,
    DictatorRule,
    MajorityLexRule,
    Rule,
    TopsTableRule,
    as_full_table,
    as_tops_table,
    find_dictator,
    is_efficient,
    is_strategy_proof,
    is_tops_only,
    is_unanimous,
    parse_rule,
)

DEFAULT_RULE_SPACE_BUDGET = 200_000
RULE_SPACE_BUDGET_ENV = "GSVERIFY_MAX_RULE_SPACE"

RULE_SPACE_NOTE = (
    "quantification over rules covers the tops-table space plus the "
    "closed-form library; full-table rule spaces are not enumerated"
)

# the census cascade, each stage counted within the one before it
CENSUS_STAGES = ("total", "unanimous", "efficient", "strategy_proof", "dictatorial")

FILTER_NAMES = ("unanimous", "efficient", "strategy-proof", "dictatorial")
# cheapest checks first; strategy-proofness runs the definitional integer scan
_FILTER_ORDER = ("unanimous", "efficient", "dictatorial", "strategy-proof")

LEMMA_DESCRIPTIONS = {
    "L1": "strategy-proof unanimous rules are efficient",
    "L3": "tops-only efficient rules always select some agent's top",
    "L4": "all profiles dictatorial iff dictatorial, within tops-only efficient rules",
    "L5": "every profile is exactly one of dictatorial or manipulable",
    "C1": "strategy-proof unanimous rules are tops-only and efficient",
    "C2": "at-least-as-dictatorial and at-least-as-manipulable are dual orders",
    "R1": "strategy-proof iff no rule is less manipulable",
    "R2": "dictatorial iff no tops-only efficient rule is more dictatorial",
    "THM": "strategy-proof unanimous rules are exactly the dictatorships",
}

_DEFAULT_SAMPLES = {
    "L1": 1000,
    "L3": 1000,
    "L4": 1000,
    "L5": 1000,
    "C1": 1000,
    "C2": 10_000,
    "R1": 1000,
    "R2": 1000,
    "THM": 100_000,
}
DEFAULT_CENSUS_SAMPLES = 100_000


def rule_space_budget() -> int:
    return int(os.environ.get(RULE_SPACE_BUDGET_ENV, DEFAULT_RULE_SPACE_BUDGET))


def rule_space_size(n: int, m: int) -> int:
    """Number of tops-table rules at (n, m): m ** (m ** n)."""
    return m ** (m**n)


# ---------------------------------------------------------------------------
# Coalescing and restriction.
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


def coalesce(rule: Rule) -> Rule:
    """Merge the first two agent slots: g(P1, P3, ..) = f(P1, P1, P3, ..)."""
    return CoalescedRule(rule)


def restrict(rule: Rule, fixed: Sequence[Preference]) -> Rule:
    """Pin agents 3..n to ``fixed``: h(P1, P2) = f(P1, P2, fixed...)."""
    return RestrictedRule(rule, tuple(fixed))


# ---------------------------------------------------------------------------
# Rule-space iteration.
# ---------------------------------------------------------------------------


def _check_rule_space(n: int, m: int, budget: int | None = None) -> int:
    size = rule_space_size(n, m)
    limit = rule_space_budget() if budget is None else budget
    if size > limit:
        raise BudgetExceededError(
            f"tops-table space at (n={n}, m={m}) holds {size} rules "
            f"({m}**{m**n}), over the budget of {limit}; "
            f"use sampled mode or raise {RULE_SPACE_BUDGET_ENV}"
        )
    return size


def _resolve_mode(
    required: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    default_samples: int,
    what: str,
    budget: int | None = None,
) -> tuple[str, int | None, int | None]:
    """Resolve auto/exhaustive/sampled against the work budget."""
    limit = rule_space_budget() if budget is None else budget
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if mode == "exhaustive" or (mode == "auto" and required <= limit):
        if required > limit:
            raise BudgetExceededError(
                f"exhaustive {what} needs {required} rule checks, over the "
                f"budget of {limit}; use sampled mode or raise {RULE_SPACE_BUDGET_ENV}"
            )
        return "exhaustive", None, None
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    return "sampled", default_samples if samples is None else samples, seed


# Rules per block handed to the rule-block kernels; bounds a block's memory.
_BLOCK_RULES = 2048


def _iter_rule_blocks(
    n: int,
    m: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    lo: int = 0,
    hi: int | None = None,
) -> Iterator[tuple[Sequence[int], bytes]]:
    """(codes-or-indices, joined) per block of candidate rules: the one rule stream.

    ``joined`` holds a block's tables back to back, one digit per byte, and
    ``codes`` their rule codes (sample indices when sampled).  Exhaustive
    mode walks rule codes ``lo <= code < hi`` (``hi`` defaults to the whole
    space) in ascending order; sampled mode yields the tables of
    ``_sampled_blocks`` and ignores ``lo`` and ``hi``.
    """
    cells = _engine.space(n, m).tops_count
    if mode == "exhaustive":
        return _exhaustive_blocks(m, cells, lo, rule_space_size(n, m) if hi is None else hi)
    return _sampled_blocks(m, cells, samples or 0, seed)


def _exhaustive_blocks(
    m: int, cells: int, lo: int, hi: int
) -> Iterator[tuple[range, bytes]]:
    """Blocks of the rule codes ``lo <= code < hi``, one per run of codes that
    share their leading digits: ``prefix + prefix.join(suffixes)`` over the
    table of all k-digit suffixes, m**k <= ``_BLOCK_RULES`` (k >= 1).  The
    first and last blocks take a slice of the table when ``lo`` and ``hi`` do
    not fall on a block boundary."""
    if lo >= hi:
        return
    k = _engine.digit_width(m, cells, _BLOCK_RULES)
    suffixes = _engine.digit_strings(m, k)
    width = len(suffixes)
    first = lo // width
    prefixes = islice(product(range(m), repeat=cells - k), first, None)
    for start, prefix in zip(range(first * width, hi, width), map(bytes, prefixes)):
        a, b = max(lo - start, 0), min(hi - start, width)
        yield range(start + a, start + b), prefix + prefix.join(suffixes[a:b])


def _scan_rules(scan, n, m, mode, samples, seed, workers, *args):
    """Run ``scan(blocks, n, m, *args, keep=...)`` over the rule stream, with
    ``keep`` true for an exhaustive stream; merge its parts.

    A scan returns ``(tallies, found, counterexample)``: a list of counts, a
    list of findings in stream order, and the counterexample it stopped at or
    None.  Exhaustive streams are split into ascending code ranges, one per
    worker process; sampled streams run in this process.  Parts merge in
    ascending code order (tallies summed, findings concatenated), and the
    merge ends with the first part that stopped, so the result is the serial
    scan's for every ``workers``.
    """
    if mode == "exhaustive":
        size = rule_space_size(n, m)
        count = max(1, min(workers, size))
        bounds = [i * (size // count) for i in range(count)] + [size]
        ranges = list(zip(bounds, bounds[1:]))
    else:
        ranges = [(0, None)]
    jobs = [(scan, n, m, mode, samples, seed, lo, hi, args) for lo, hi in ranges]
    if len(jobs) == 1:
        return _merge_parts(map(_run_scan, jobs))
    import multiprocessing  # here, not at the top: serial runs skip its import time

    with multiprocessing.Pool(len(jobs)) as pool:
        # leaving the pool before the last part terminates the later scans
        return _merge_parts(pool.imap(_run_scan, jobs))


def _merge_parts(parts: Iterator[tuple]) -> tuple:
    tallies = None
    found: list = []
    for part_tallies, part_found, counterexample in parts:
        if tallies is None:
            tallies = part_tallies
        else:
            tallies = [a + b for a, b in zip(tallies, part_tallies)]
        found.extend(part_found)
        if counterexample is not None:
            break
    return tallies, found, counterexample


def _run_scan(job: tuple):
    scan, n, m, mode, samples, seed, lo, hi, args = job
    blocks = _iter_rule_blocks(n, m, mode, samples, seed, lo, hi)
    return scan(blocks, n, m, *args, keep=mode == "exhaustive")


def _bit_indices(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    text = format(bits, "b")[::-1]
    found = []
    r = text.find("1")
    while r >= 0:
        found.append(r)
        r = text.find("1", r + 1)
    return found


def _rule_at(joined: bytes, r: int, cells: int) -> bytes:
    """The digits of rule r of a block."""
    return joined[r * cells : (r + 1) * cells]


def _cut(joined: bytes, rows: Sequence[int], cells: int) -> bytes:
    """The block of the listed rules of a block, in the order listed."""
    return b"".join([joined[r * cells : (r + 1) * cells] for r in rows])


# Mersenne Twister words drawn per generator call by the sampled rule stream (32 KB).
_BLOCK_WORDS = 8192


def _sampled_blocks(
    m: int, cells: int, count: int, seed: int | None
) -> Iterator[tuple[range, bytes]]:
    """``count`` tables of ``cells`` digits in blocks of at most
    ``_BLOCK_RULES``: exactly the digits of ``[rng.randrange(m) for _ in
    range(cells)]`` per table, ``rng = random.Random(seed)``, drawn a block
    of generator words at a time.

    ``randrange(m)`` returns ``getrandbits(k)`` with ``k = m.bit_length()``,
    drawn again while it is >= m, and ``getrandbits(k)`` is the top k bits of
    one 32-bit generator word.  ``getrandbits(32 * B)`` packs B consecutive
    words, the first in the lowest 32 bits, so byte 3 of every little-endian
    4-byte group is a word's top byte.  ``translate`` maps each top byte to
    its top k bits and deletes the rejected ones, leaving the accepted draws
    in order; each block of rules is the next slice of them.  This is the
    layout of CPython's ``random`` (3.10 to 3.13 checked).
    """
    k = m.bit_length()
    if k > 8:
        raise ValueError(f"the sampled rule stream needs m < 256, got m={m}")
    shift = 8 - k
    top_bits = bytes(b >> shift for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= m)
    rng = random.Random(seed)
    buf = b""
    for start in range(0, count, _BLOCK_RULES):
        rules = min(_BLOCK_RULES, count - start)
        need = rules * cells
        parts = [buf]
        have = len(buf)
        while have < need:
            words = rng.getrandbits(32 * _BLOCK_WORDS).to_bytes(4 * _BLOCK_WORDS, "little")
            parts.append(words[3::4].translate(top_bits, rejected))
            have += len(parts[-1])
        buf = b"".join(parts)
        yield range(start, start + rules), buf[:need]
        buf = buf[need:]


def _sample_efficient_digits(rng: random.Random, sp: _engine.Space) -> list[int]:
    """One uniform sample from the cell-wise efficient tops tables."""
    return [rng.choice(sp.cell_tops_sets[tc]) for tc in range(sp.tops_count)]


def sample_efficient_tops_tables(
    n: int, m: int, count: int, seed: int
) -> list[TopsTableRule]:
    """Seeded uniform sample of tops-table rules whose every cell selects a top.

    Such rules are unanimous and efficient by construction of the sample.
    """
    check_agent_count(n)
    check_alternative_count(m)
    sp = _engine.space(n, m)
    rng = random.Random(seed)
    return [
        TopsTableRule(n, m, tuple(_sample_efficient_digits(rng, sp)))
        for _ in range(count)
    ]


def enumerate_tops_only_rules(
    n: int,
    m: int,
    filters: Sequence[str] = (),
    *,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> Iterator[TopsTableRule]:
    """Stream tops-table rules in ascending rule-code order, optionally filtered.

    Filters (any of "unanimous", "efficient", "strategy-proof", "dictatorial")
    short-circuit cheapest first.  Exhaustive mode requires the rule space to
    fit the budget; sampled mode draws uniform tables from a seeded generator.
    """
    check_agent_count(n)
    check_alternative_count(m)
    ordered = _ordered_filters(filters)
    resolved, eff_samples, eff_seed = _resolve_mode(
        rule_space_size(n, m), mode, samples, seed, DEFAULT_CENSUS_SAMPLES,
        f"enumeration at (n={n}, m={m})", budget,
    )
    if "strategy-proof" in ordered:
        check_profile_work(n, m)
    sp = _engine.space(n, m)

    def gen() -> Iterator[TopsTableRule]:
        blocks = _iter_rule_blocks(n, m, resolved, eff_samples, eff_seed)
        cells = sp.tops_count
        keep = resolved == "exhaustive"
        for _, joined in _filter_rules(blocks, ordered, sp, keep):
            for start in range(0, len(joined), cells):
                yield TopsTableRule(n, m, tuple(joined[start : start + cells]))

    return gen()


def _ordered_filters(filters: Sequence[str]) -> tuple[str, ...]:
    for name in filters:
        if name not in FILTER_NAMES:
            raise ValueError(
                f"unknown filter {name!r}; expected one of {', '.join(FILTER_NAMES)}"
            )
    return tuple(name for name in _FILTER_ORDER if name in filters)


def _filter_rules(
    blocks: Iterable[tuple[Sequence[int], bytes]],
    filters: tuple[str, ...],
    sp: _engine.Space,
    keep: bool = True,
) -> Iterator[tuple[Sequence[int], bytes]]:
    """The blocks of a block stream cut down to the rules passing every one of
    the ordered ``filters``; blocks left empty are dropped.  The kernels keep
    the blocks' columns in the memo only if ``keep`` (an exhaustive stream)."""
    if not filters:
        yield from blocks
        return
    cells = sp.tops_count
    for codes, joined in blocks:
        count, cols = _engine.block_columns(joined, sp, keep)
        full = (1 << count) - 1
        kept = _filter_mask(filters, joined, cols, full, sp, keep)
        if kept == full:
            yield codes, joined
        elif kept:
            rows = _bit_indices(kept)
            yield [codes[r] for r in rows], _cut(joined, rows, cells)


def _filter_mask(
    filters: Iterable[str],
    joined: bytes,
    cols: Sequence[tuple[int, ...]],
    within: int,
    sp: _engine.Space,
    keep: bool = True,
) -> int:
    """The rules of ``within`` passing every one of ``filters``, each stage
    tested on the survivors of the stages before it."""
    for name in filters:
        within = _stage_mask(name, joined, cols, within, sp, keep)
    return within


def _stage_mask(
    name: str,
    joined: bytes,
    cols: Sequence[tuple[int, ...]],
    within: int,
    sp: _engine.Space,
    keep: bool = True,
) -> int:
    """The rules of ``within`` passing one filter, from the block's columns;
    "strategy-proof" scans only those rules, cut out of the block, and keeps
    the columns it reads in the memo only if ``keep``."""
    if not within:
        return 0
    if name == "unanimous":
        return _engine.block_unanimous(cols, within, sp)
    if name == "efficient":
        return _engine.block_efficient_cells(cols, within, sp)
    if name == "dictatorial":
        return reduce(or_, _engine.block_dictators(cols, within, sp))
    return within & ~_manipulable(joined, within, sp, keep)


def _manipulable(joined: bytes, within: int, sp: _engine.Space, keep: bool) -> int:
    """The rules of ``within`` that ``_engine.block_manipulable`` finds
    manipulable; the other rules of the block are not scanned."""
    cells = sp.tops_count
    if within == (1 << (len(joined) // cells)) - 1:
        return _engine.block_manipulable(joined, sp, keep)
    rows = _bit_indices(within)
    found = _engine.block_manipulable(_cut(joined, rows, cells), sp, keep)
    return sum(1 << rows[j] for j in _bit_indices(found))


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


@frozen
class CensusReport:
    """Cascade counts over the tops-table rule space at fixed (n, m).

    Counts are nested: unanimous within total, efficient within unanimous,
    strategy-proof within efficient, dictatorial within strategy-proof.
    ``elapsed_seconds`` never enters serialized output so reports stay
    byte-deterministic.
    """

    n: int
    m: int
    mode: str
    samples: int | None
    seed: int | None
    filters: tuple[str, ...]
    total: int
    unanimous: int
    efficient: int
    strategy_proof: int
    dictatorial: int
    strategy_proof_rules: tuple[str, ...]
    dictator_rules: tuple[str, ...]
    sp_equals_dictators: bool
    rule_space: str = "tops-table"
    note: str = RULE_SPACE_NOTE
    elapsed_seconds: float = 0.0

    def counts(self) -> dict[str, int]:
        """The cascade counts keyed by ``CENSUS_STAGES``, in stage order."""
        return {stage: getattr(self, stage) for stage in CENSUS_STAGES}

    def to_json_dict(self) -> dict:
        return {
            "agents": self.n,
            "alternatives": self.m,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "filters": list(self.filters),
            "rule_space": self.rule_space,
            "note": self.note,
            "counts": self.counts(),
            "strategy_proof_rules": list(self.strategy_proof_rules),
            "dictator_rules": list(self.dictator_rules),
            "sp_equals_dictators": self.sp_equals_dictators,
        }


def _census_scan(
    blocks: Iterator[tuple[Sequence[int], bytes]],
    n: int,
    m: int,
    filters: tuple[str, ...],
    keep: bool,
) -> tuple[list[int], list[tuple[str, bool]], None]:
    """Cascade tallies in ``CENSUS_STAGES`` order, and (rule string,
    dictatorial) per strategy-proof survivor.

    Per block, each stage is one bitset within the stage before it.  The
    rules passing the prefilters pass those stages already, so a stage that
    is also a prefilter keeps its input and is not tested again.
    """
    sp = _engine.space(n, m)
    cells = sp.tops_count
    tallies = [0] * len(CENSUS_STAGES)
    survivors: list[tuple[str, bool]] = []
    for _, joined in blocks:
        count, cols = _engine.block_columns(joined, sp, keep)
        kept = _filter_mask(filters, joined, cols, (1 << count) - 1, sp, keep)
        cascade = [kept]
        for name in FILTER_NAMES:  # the cascade order
            if name not in filters:
                kept = _stage_mask(name, joined, cols, kept, sp, keep)
            cascade.append(kept)
        tallies = [t + bits.bit_count() for t, bits in zip(tallies, cascade)]
        strategy_proof, dictatorial = cascade[3], cascade[4]
        for r in _bit_indices(strategy_proof):
            rule = _rule_string_from_digits(n, m, _rule_at(joined, r, cells))
            survivors.append((rule, bool((dictatorial >> r) & 1)))
    return tallies, survivors, None


def census(
    n: int,
    m: int,
    *,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
    workers: int = 1,
    filters: Sequence[str] = (),
    budget: int | None = None,
) -> CensusReport:
    """Count the axiom cascade over the tops-table rule space.

    In exhaustive mode the strategy-proof survivors are compared element-wise
    (in ascending rule-code order) with the dictatorships.  Pre-filters
    restrict the enumerated space before counting.  Sampled mode draws
    uniform rules from a seeded generator and is always single-process so
    identical seeds reproduce identical reports.
    """
    check_agent_count(n)
    check_alternative_count(m)
    ordered_filters = _ordered_filters(filters)
    resolved, eff_samples, eff_seed = _resolve_mode(
        rule_space_size(n, m), mode, samples, seed, DEFAULT_CENSUS_SAMPLES,
        f"census at (n={n}, m={m})", budget,
    )
    check_profile_work(n, m)  # the cascade's strategy-proofness stage
    t0 = perf_counter()
    tallies, survivors, _ = _scan_rules(
        _census_scan, n, m, resolved, eff_samples, eff_seed, workers, ordered_filters
    )
    sp_rules = tuple(rule for rule, _ in survivors)
    dict_rules = tuple(rule for rule, is_dictator in survivors if is_dictator)
    return CensusReport(
        n=n,
        m=m,
        mode=resolved,
        samples=eff_samples,
        seed=eff_seed,
        filters=ordered_filters,
        **dict(zip(CENSUS_STAGES, tallies)),
        strategy_proof_rules=sp_rules,
        dictator_rules=dict_rules,
        sp_equals_dictators=sp_rules == dict_rules,
        elapsed_seconds=perf_counter() - t0,
    )


def census_rows(
    n: int, m: int, filters: Sequence[str] = (), budget: int | None = None
) -> Iterator[tuple[Sequence[int], bytes, list[int], list[int]]]:
    """Per-rule census detail, one record per rule block (exhaustive only).

    Yields (rule codes, flags, |M_f|, |D_f|) of the rules passing ``filters``,
    ascending code, one flags byte per rule: bit i is its ``FILTER_NAMES[i]``
    verdict.  Strategy-proofness is decided by the definitional
    ``_engine.block_manipulable``, not read off |M_f|.
    """
    check_agent_count(n)
    check_alternative_count(m)
    _check_rule_space(n, m, budget)
    ordered = _ordered_filters(filters)
    check_profile_work(n, m)  # the strategy-proof column
    sp = _engine.space(n, m)

    def gen() -> Iterator[tuple[Sequence[int], bytes, list[int], list[int]]]:
        for codes, joined in _iter_rule_blocks(n, m, "exhaustive", None, None):
            count, cols = _engine.block_columns(joined, sp)
            full = (1 << count) - 1
            kept = _filter_mask(ordered, joined, cols, full, sp)
            if not kept:
                continue
            # a column that is also a prefilter holds for every kept rule
            flags = _engine.bit_flags([
                kept if name in ordered else _stage_mask(name, joined, cols, kept, sp)
                for name in FILTER_NAMES
            ], count)
            if kept != full:
                rows = _bit_indices(kept)
                codes = [codes[r] for r in rows]
                flags = _cut(flags, rows, 1)
                joined = _cut(joined, rows, sp.tops_count)
            _, m_counts, d_counts = _engine.block_cell_masks(joined, sp)
            yield codes, flags, m_counts, d_counts

    return gen()


# ---------------------------------------------------------------------------
# Verification suite.
# ---------------------------------------------------------------------------


@frozen
class VerificationReport:
    """Outcome of one suite check; failures carry a re-validatable counterexample."""

    lemma: str
    n: int
    m: int
    mode: str
    samples: int | None
    seed: int | None
    passed: bool
    checks: int
    counterexample: dict | None
    detail: dict = DefaultFactory(dict)
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "description": LEMMA_DESCRIPTIONS[self.lemma],
            "agents": self.n,
            "alternatives": self.m,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": self.checks,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


def _rule_string_from_digits(n: int, m: int, digits: Sequence[int]) -> str:
    return TopsTableRule(n, m, tuple(digits)).to_string()


def _verify_l1(n, m, mode, samples, seed, workers):
    """No unanimous, inefficient, strategy-proof rule may exist."""
    checks, counterexample, (unanimous, _, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed,
        "strategy-proof unanimous rule that is not efficient",
        lambda rule: not is_efficient(rule),
    )
    detail = {"unanimous_rules": unanimous, "closed_forms": closed}
    return counterexample is None, checks, counterexample, detail


def _strategy_proof_unanimous_scan(n, m, mode, samples, seed, kind, closed_form_fails):
    """The scan of L1 and C1: every unanimous rule of the stream, then the
    closed-form library; stops at the first strategy-proof unanimous rule
    that is not efficient (``closed_form_fails`` for the closed forms).

    Returns checks, the counterexample of ``kind`` or None, and the counts
    (unanimous stream rules, strategy-proof unanimous rules, closed forms).
    """
    sp = _engine.space(n, m)
    cells = sp.tops_count
    keep = mode == "exhaustive"
    unanimous = strategy_proof = closed = 0
    counterexample = None
    for _, joined in _iter_rule_blocks(n, m, mode, samples, seed):
        count, cols = _engine.block_columns(joined, sp, keep)
        unanimous_rules = _engine.block_unanimous(cols, (1 << count) - 1, sp)
        sp_rules = _stage_mask("strategy-proof", joined, cols, unanimous_rules, sp, keep)
        # tops-only (C1) holds by construction over this space
        inefficient = sp_rules & ~_engine.block_efficient_definitional(cols, sp_rules, sp)
        if inefficient:
            r = _low_bit(inefficient)
            upto = (2 << r) - 1
            unanimous += (unanimous_rules & upto).bit_count()
            strategy_proof += (sp_rules & upto).bit_count()
            rule_string = _rule_string_from_digits(n, m, _rule_at(joined, r, cells))
            counterexample = {"kind": kind, "rule": rule_string}
            break
        unanimous += unanimous_rules.bit_count()
        strategy_proof += sp_rules.bit_count()
    else:
        for rule in _closed_form_library(n, m):
            closed += 1
            table = as_full_table(rule)  # built once; every question scans it
            if is_strategy_proof(table) and is_unanimous(table):
                strategy_proof += 1
                if closed_form_fails(table):
                    counterexample = {"kind": kind, "rule": rule.to_string()}
                    break
    return unanimous + closed, counterexample, (unanimous, strategy_proof, closed)


def _low_bit(bits: int) -> int:
    """The position of the lowest set bit of a non-zero int."""
    return (bits & -bits).bit_length() - 1


def _verify_l3(n, m, mode, samples, seed, workers):
    """Pareto-efficient tops-table rules select some agent's top everywhere."""
    sp = _engine.space(n, m)
    cells = sp.tops_count
    checks = 0
    counterexample = None
    for _, joined in _iter_rule_blocks(n, m, mode, samples, seed):
        count, cols = _engine.block_columns(joined, sp, mode == "exhaustive")
        efficient = _engine.block_efficient_definitional(cols, (1 << count) - 1, sp)
        nobodys_top = efficient & ~_engine.block_efficient_cells(cols, efficient, sp)
        if nobodys_top:
            r = _low_bit(nobodys_top)
            checks += (efficient & ((2 << r) - 1)).bit_count()
            digits = _rule_at(joined, r, cells)
            tc = next(tc for tc in range(cells) if digits[tc] not in sp.cell_tops_sets[tc])
            counterexample = {
                "kind": "efficient rule selecting nobody's top",
                "rule": _rule_string_from_digits(n, m, digits),
                "tops": list(sp.tops_tuples[tc]),
                "outcome": digits[tc],
            }
            break
        checks += efficient.bit_count()
    detail = {"efficient_rules": checks}
    return counterexample is None, checks, counterexample, detail


def _te_blocks(n, m, mode, samples, seed):
    """Blocks of unanimous and cell-efficient rules; sampled mode draws
    directly from the cell-efficient space."""
    sp = _engine.space(n, m)
    if mode == "exhaustive":
        blocks = _iter_rule_blocks(n, m, mode, None, None)
        return _filter_rules(blocks, ("unanimous", "efficient"), sp)
    return _sampled_efficient_blocks(sp, samples or 0, random.Random(seed))


def _sampled_efficient_blocks(
    sp: _engine.Space, count: int, rng: random.Random
) -> Iterator[tuple[range, bytes]]:
    for start in range(0, count, _BLOCK_RULES):
        stop = min(count, start + _BLOCK_RULES)
        yield range(start, stop), b"".join(
            [bytes(_sample_efficient_digits(rng, sp)) for _ in range(start, stop)]
        )


def _dictator_block(sp: _engine.Space) -> tuple[range, bytes]:
    """The dictatorships as one block, agent 0 first."""
    return range(sp.n), b"".join(map(bytes, sp.dictator_tables))


def _verify_l4(n, m, mode, samples, seed, workers):
    """Within tops-only efficient rules: every profile dictatorial iff dictatorial."""
    sp = _engine.space(n, m)
    cells = sp.tops_count
    checks = 0
    counterexample = None
    dictators = 0
    keep = mode == "exhaustive"
    for _, joined in _te_blocks(n, m, mode, samples, seed):
        count, cols = _engine.block_columns(joined, sp, keep)
        full = (1 << count) - 1
        dictatorial, _ = _engine.block_profile_verdicts(joined, sp, keep)
        everywhere = reduce(and_, dictatorial, full)  # every profile dictatorial
        agents = _engine.block_dictators(cols, full, sp)
        is_dictator = reduce(or_, agents)
        mismatch = everywhere ^ is_dictator
        if mismatch:
            r = _low_bit(mismatch)
            checks += r + 1
            dictators += (is_dictator & ((2 << r) - 1)).bit_count()
            counterexample = {
                "kind": "all-profiles-dictatorial mismatch",
                "rule": _rule_string_from_digits(n, m, _rule_at(joined, r, cells)),
                "dictatorial_profiles": sum((d >> r) & 1 for d in dictatorial),
                "profiles": sp.profile_count,
                "dictator": next(
                    (i for i, rules in enumerate(agents) if (rules >> r) & 1), None
                ),
            }
            break
        checks += count
        dictators += is_dictator.bit_count()
    detail = {"dictators": dictators}
    return counterexample is None, checks, counterexample, detail


def _l5_block(block: bytes, sp: _engine.Space, keep: bool) -> tuple[int, int, dict | None]:
    """Rules and checks of the partition scan over one block of rules, which
    stops at the first failing (rule, profile) in (rule, profile code) order.

    Per profile and rule, the verdict must be exactly one of dictatorial and
    manipulable, and equal to the verdict at the first profile of its tops
    cell (which passed, or the scan would have stopped there).
    """
    count = len(block) // sp.tops_count
    full = (1 << count) - 1
    dictatorial, manipulable = _engine.block_profile_verdicts(block, sp, keep)
    first_in_cell: dict[int, int] = {}
    not_one = []
    failing = []
    any_failing = 0
    for pc, (tc, _dominated, _agents) in enumerate(_engine.profile_rows(sp.n, sp.m)):
        d, mp = dictatorial[pc], manipulable[pc]
        first = first_in_cell.setdefault(tc, pc)
        not_one.append(full ^ d ^ mp)
        failing.append(
            not_one[pc] | (d ^ dictatorial[first]) | (mp ^ manipulable[first])
        )
        any_failing |= failing[pc]
    if not any_failing:
        return count, count * sp.profile_count, None
    r = (any_failing & -any_failing).bit_length() - 1
    pc = next(pc for pc, bits in enumerate(failing) if (bits >> r) & 1)
    if (not_one[pc] >> r) & 1:
        kind = "profile not exactly one of dictatorial/manipulable"
    else:
        kind = "verdict not constant on a same-tops cell"
    cells = sp.tops_count
    return r + 1, r * sp.profile_count + pc + 1, {
        "kind": kind,
        "rule": _rule_string_from_digits(sp.n, sp.m, block[r * cells : (r + 1) * cells]),
        "profile": profile_from_code(pc, sp.n, sp.m).to_text(),
        "dictatorial": bool((dictatorial[pc] >> r) & 1),
        "manipulable": bool((manipulable[pc] >> r) & 1),
    }


def _l5_scan(
    blocks, n: int, m: int, keep: bool = True
) -> tuple[list[int], list, dict | None]:
    """Tallies [rules, checks] of the L5 partition scan over a block stream,
    up to its first counterexample."""
    sp = _engine.space(n, m)
    rules = checks = 0
    counterexample = None
    for _, joined in blocks:
        block_rules, block_checks, counterexample = _l5_block(joined, sp, keep)
        rules += block_rules
        checks += block_checks
        if counterexample:
            break
    return [rules, checks], [], counterexample


def _verify_l5(n, m, mode, samples, seed, workers):
    """Partition: per rule and profile, exactly one verdict holds."""
    (rules, checks), _, counterexample = _scan_rules(
        _l5_scan, n, m, mode, samples, seed, workers
    )
    detail = {"rules": rules, "profiles_per_rule": _engine.space(n, m).profile_count}
    return counterexample is None, checks, counterexample, detail


def _verify_c1(n, m, mode, samples, seed, workers):
    """Strategy-proof unanimous rules are tops-only and efficient."""
    checks, counterexample, (_, strategy_proof, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed,
        "strategy-proof unanimous rule outside tops-only efficient",
        lambda rule: not (is_tops_only(rule) and is_efficient(rule)),
    )
    detail = {"strategy_proof_unanimous": strategy_proof, "closed_forms": closed}
    return counterexample is None, checks, counterexample, detail


def _draw_codes(rng: random.Random, size: int, count: int) -> list[int]:
    """``[rng.randrange(size) for _ in range(count)]``, drawn as CPython does."""
    getrandbits, k = rng.getrandbits, size.bit_length()
    draws = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        draws.append(r)
    return draws


def _verify_c2(n, m, mode, samples, seed, workers):
    """Duality of the orders: f >=_d g iff g >=_m f, over rule pairs."""
    sp = _engine.space(n, m)
    cells = sp.tops_count
    size = rule_space_size(n, m)
    if mode == "exhaustive":
        pairs = ((f, g) for f in range(size) for g in range(size))
        position = range(size)  # a rule's counts sit at its code
        blocks = _iter_rule_blocks(n, m, "exhaustive", None, None)
    else:
        draws = _draw_codes(random.Random(seed), size, 2 * (samples or 0))  # f, g, f, ...
        pairs = zip(draws[0::2], draws[1::2])
        # the distinct codes in first-seen order, each mapped to its position
        position = dict.fromkeys(draws)
        for index, code in enumerate(position):
            position[code] = index
        first_seen = iter(position)
        parts = iter(lambda: list(islice(first_seen, _BLOCK_RULES)), [])
        blocks = (
            (part, b"".join([_engine.digits_from_code(code, cells, m) for code in part]))
            for part in parts
        )
    m_counts: list[int] = []
    d_counts: list[int] = []
    for codes, joined in blocks:
        # |M_f| and |D_f| counted apart, from the per-profile verdicts
        dictatorial, manipulable = _engine.block_profile_verdicts(
            joined, sp, mode == "exhaustive"
        )
        m_counts += _engine.bit_counts(manipulable, len(codes))
        d_counts += _engine.bit_counts(dictatorial, len(codes))
    checks = 0
    counterexample = None
    for f_code, g_code in pairs:
        f, g = position[f_code], position[g_code]
        mf, df, mg, dg = m_counts[f], d_counts[f], m_counts[g], d_counts[g]
        checks += 1
        if (df >= dg) != (mg >= mf):
            counterexample = {
                "kind": "duality violation",
                "f": _rule_string_from_digits(
                    n, m, _engine.digits_from_code(f_code, cells, m)
                ),
                "g": _rule_string_from_digits(
                    n, m, _engine.digits_from_code(g_code, cells, m)
                ),
                "m_f": mf,
                "d_f": df,
                "m_g": mg,
                "d_g": dg,
            }
            break
    if mode == "exhaustive":
        distinct = size
    else:  # the rules met up to the last pair checked
        distinct = len(set(draws[: 2 * checks]))
    detail = {"distinct_rules": distinct}
    return counterexample is None, checks, counterexample, detail


def _extremum_scan(records, cells: int, target: int, pick) -> tuple[int, int, tuple | None]:
    """The order-extremum scan of R1 and R2 over per-block records.

    ``records`` yields ``(joined, flags, hits, values)`` per block: the flag
    bitset, the bitset of rules whose value is ``target`` (|M_f| = 0, or
    |D_f| = every profile), and the values.  A rule fails when its flag
    differs from "value is the target" or from "value is the extremum"
    (``pick``, min or max, over the whole stream).  Returns the rules, the
    extremum and ``(index, digits, value, flag)`` of the first failing rule,
    or None.
    """
    records = list(records)
    total = sum(len(values) for *_, values in records)
    extremum = pick(pick(values) for *_, values in records)
    index = 0
    for joined, flags, hits, values in records:
        failing = flags ^ hits
        if extremum != target:  # then no rule hits the target
            failing = flags | sum(1 << r for r, v in enumerate(values) if v == extremum)
        if failing:
            r = _low_bit(failing)
            found = index + r, _rule_at(joined, r, cells), values[r], bool((flags >> r) & 1)
            return total, extremum, found
        index += len(values)
    return total, extremum, None


def _no_cells(nondictatorial: list[int], count: int) -> int:
    """The rules of a block with no non-dictatorial tops cell: |M_f| = 0."""
    return ((1 << count) - 1) & ~reduce(or_, nondictatorial, 0)


def _verify_r1(n, m, mode, samples, seed, workers):
    """Strategy-proof iff minimal in the manipulability order (iff M empty)."""
    sp = _engine.space(n, m)
    keep = mode == "exhaustive"
    blocks = _iter_rule_blocks(n, m, mode, samples, seed)
    if mode == "sampled":
        # the full pool always contains the dictatorships; anchor the sample
        blocks = chain(blocks, [_dictator_block(sp)])

    def records():
        for _, joined in blocks:
            nondictatorial, m_counts, _ = _engine.block_cell_masks(joined, sp, keep)
            count = len(m_counts)
            manipulable = _engine.block_manipulable(joined, sp, keep)
            strategy_proof = ((1 << count) - 1) & ~manipulable
            yield joined, strategy_proof, _no_cells(nondictatorial, count), m_counts

    rules, min_m, found = _extremum_scan(records(), sp.tops_count, 0, min)
    checks = rules
    counterexample = None
    if found:
        index, digits, m_count, strategy_proof = found
        checks = index + 1
        counterexample = {
            "kind": "minimality mismatch",
            "rule": _rule_string_from_digits(n, m, digits),
            "m_count": m_count,
            "min_m_count": min_m,
            "strategy_proof": strategy_proof,
        }
    detail = {"min_m_count": min_m, "rules": rules}
    return counterexample is None, checks, counterexample, detail


def _verify_r2(n, m, mode, samples, seed, workers):
    """Dictatorial iff maximal in the dictatorial-power order over the
    tops-only efficient pool (iff every profile is dictatorial)."""
    sp = _engine.space(n, m)
    keep = mode == "exhaustive"
    blocks = _te_blocks(n, m, mode, samples, seed)
    if mode == "sampled":
        # the pool always contains the dictatorships; anchor the sample
        blocks = chain(blocks, [_dictator_block(sp)])

    def records():
        for _, joined in blocks:
            count, cols = _engine.block_columns(joined, sp, keep)
            nondictatorial, _, d_counts = _engine.block_cell_masks(joined, sp, keep)
            dictatorial = reduce(or_, _engine.block_dictators(cols, (1 << count) - 1, sp))
            yield joined, dictatorial, _no_cells(nondictatorial, count), d_counts

    pool, max_d, found = _extremum_scan(records(), sp.tops_count, sp.profile_count, max)
    checks = pool
    counterexample = None
    if found:
        index, digits, d_count, dictatorial = found
        checks = index + 1
        counterexample = {
            "kind": "maximality mismatch",
            "rule": _rule_string_from_digits(n, m, digits),
            "d_count": d_count,
            "max_d_count": max_d,
            "profiles": sp.profile_count,
            "dictatorial": dictatorial,
        }
    detail = {"pool": pool, "max_d_count": max_d}
    return counterexample is None, checks, counterexample, detail


def _verify_thm(n, m, mode, samples, seed, workers):
    """Strategy-proof unanimous tops-table rules are exactly the dictatorships."""
    report = census(n, m, mode=mode, samples=samples, seed=seed, workers=workers)
    passed = report.sp_equals_dictators
    counterexample = None
    if not passed:
        extra = [
            r for r in report.strategy_proof_rules if r not in report.dictator_rules
        ]
        # prefer a recognizable counterexample (the majority control) when present
        chosen = next(
            (r for r in extra if _known_equivalent(parse_rule(r, n, m)) is not None),
            extra[0],
        )
        rule = parse_rule(chosen, n, m)
        counterexample = {
            "kind": "strategy-proof unanimous efficient rule with no dictator",
            "rule": chosen,
            "equals": _known_equivalent(rule),
            "certificate": _axiom_values(rule),
        }
    detail = {"counts": report.counts()}
    return passed, report.total, counterexample, detail


def _axiom_values(rule: Rule) -> dict:
    """The five axiom values of a counterexample certificate, each a scan of
    the rule's full table, built once."""
    table = as_full_table(rule)
    return {
        "unanimous": is_unanimous(table),
        "tops_only": is_tops_only(table),
        "efficient": is_efficient(table),
        "strategy_proof": is_strategy_proof(table),
        "dictator": find_dictator(table),
    }


def _known_equivalent(rule: Rule) -> str | None:
    """Closed-form name of the rule if it matches one, else None."""
    for candidate in _closed_form_library(rule.n, rule.m):
        if not candidate.tops_only_by_construction:
            continue
        if as_tops_table(candidate).outcomes == as_tops_table(rule).outcomes:
            return candidate.to_string()
    return None


def _closed_form_library(n: int, m: int) -> list[Rule]:
    rules: list[Rule] = [DictatorRule(n, m, i) for i in range(n)]
    rules.extend(ConstantRule(n, m, x) for x in range(m))
    rules.append(BordaLexRule(n, m))
    if m == 2:
        rules.append(MajorityLexRule(n))
    return rules


_LEMMA_IMPLS = {
    "L1": _verify_l1,
    "L3": _verify_l3,
    "L4": _verify_l4,
    "L5": _verify_l5,
    "C1": _verify_c1,
    "C2": _verify_c2,
    "R1": _verify_r1,
    "R2": _verify_r2,
    "THM": _verify_thm,
}


def verify_lemma(
    lemma: str,
    n: int,
    m: int,
    *,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
    workers: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Run one suite check and report pass/fail with any counterexample.

    ``mode="auto"`` runs exhaustively when the rule space (or, for C2, the
    pair space) fits the budget and falls back to seeded sampling otherwise.
    """
    lemma = lemma.upper()
    if lemma not in _LEMMA_IMPLS:
        known = ", ".join(sorted(_LEMMA_IMPLS))
        raise UnknownLemmaError(f"unknown check id {lemma!r}; known ids: {known}")
    check_agent_count(n)
    check_alternative_count(m)
    size = rule_space_size(n, m)
    required = size * size if lemma == "C2" else size
    resolved, eff_samples, eff_seed = _resolve_mode(
        required, mode, samples, seed, _DEFAULT_SAMPLES[lemma],
        f"{lemma} at (n={n}, m={m})", budget,
    )
    check_profile_work(n, m)
    t0 = perf_counter()
    passed, checks, counterexample, detail = _LEMMA_IMPLS[lemma](
        n, m, resolved, eff_samples, eff_seed, workers
    )
    return VerificationReport(
        lemma=lemma,
        n=n,
        m=m,
        mode=resolved,
        samples=eff_samples,
        seed=eff_seed,
        passed=passed,
        checks=checks,
        counterexample=counterexample,
        detail=detail,
        elapsed_seconds=perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Two-alternative negative control.
# ---------------------------------------------------------------------------


@frozen
class CounterexampleCertificate:
    """Machine-checked properties of the two-alternative majority rule."""

    rule: MajorityLexRule
    unanimous: bool
    strategy_proof: bool
    tops_only: bool
    efficient: bool
    dictator: int | None

    @property
    def valid(self) -> bool:
        return (
            self.unanimous
            and self.strategy_proof
            and self.tops_only
            and self.efficient
            and self.dictator is None
        )

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.to_string(),
            "unanimous": self.unanimous,
            "strategy_proof": self.strategy_proof,
            "tops_only": self.tops_only,
            "efficient": self.efficient,
            "dictator": self.dictator,
            "valid": self.valid,
        }


def majority_counterexample(n: int = 3) -> CounterexampleCertificate:
    """Certify majority at m=2 as unanimous, strategy-proof, tops-only,
    efficient, and non-dictatorial; shows two alternatives are not enough
    for the dictatorship conclusion."""
    rule = MajorityLexRule(n)
    return CounterexampleCertificate(rule=rule, **_axiom_values(rule))
