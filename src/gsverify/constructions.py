"""Rule constructions, the tops-table census engine, and ``verify_lemma``.

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
rules at a time: an ``_engine.Block``, the rules' digits back to back in one
``bytes`` with their codes.  Exhaustive blocks are the next
``_BLOCK_RULES`` codes of a product of per-cell digit sets, written a cell
at a time (``_exhaustive_blocks``: every digit over the tops-table space,
the cells' tops sets over the tops-only efficient class of L4 and R2), and
are the only blocks whose columns the memo keeps;
sampled blocks are consecutive slices of the ``randrange(m)``-per-tops-cell
digits of ``random.Random(seed)``, drawn a block of generator words at a
time (the tests pin them to the ``randrange`` loop).  Every scan runs in this
process, one block after the other.

Within a block, bit r of every bitset stands for rule r.  The block's
columns (``_engine.Block.cols``) are computed once, and every cascade stage
is a bitset over them: ``_stage_mask`` gives the rules of a bitset passing
one filter, from the block predicates of ``_engine`` (unanimous,
cell-efficient, dictatorial, and ``block_manipulable``, which decides every
strategy-proofness question).  ``enumerate_tops_only_rules`` reads the
digits of the rules of ``_filter_mask``; the census keeps the bitsets and
counts them with ``int.bit_count``, ``census_rows`` sums them per block into
one class key per rule (``_engine.plane_counts``), and a census stage that
is also a prefilter reuses the prefilter's bitset.
A census block read once (the sampled stream) with no prefilter but
unanimity is first cut to its unanimous rules, read from the digits of the
m unanimous cells alone (``_engine.block_unanimous_digits``), and only the
cut block's columns are built: about one rule in m**m is unanimous.  Blocks
of an exhaustive stream keep all their rules, because the memo keeps their
columns for the next scan of the same blocks.

The nine suite checks live in ``_lemmas``, which ``verify_lemma`` imports
on its first call; ``VerificationReport``, the counterexample certificate
``_axiom_values`` and the two-alternative control ``majority_counterexample``
stay here.  This module reads the object layer, ``rules``, only inside the
functions that build or certify rule objects (``coalesce`` and
``restrict``, whose ``CoalescedRule`` and ``RestrictedRule`` live there,
``enumerate_tops_only_rules``, ``sample_efficient_tops_tables`` and the
certificates), so the census, which prints its survivors with
``_engine._tops_string``, never compiles it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from operator import or_
from time import perf_counter

from . import _engine, rules
from ._value import DefaultFactory, frozen
from .errors import BudgetExceededError, UnknownLemmaError
from .prefs import Preference, check_dims, check_profile_work, env_whole_number

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


def rule_space_size(n: int, m: int) -> int:
    """Number of tops-table rules at (n, m): m ** (m ** n)."""
    return m ** (m**n)


# ---------------------------------------------------------------------------
# Coalescing and restriction.
# ---------------------------------------------------------------------------


def coalesce(rule: rules.Rule) -> rules.Rule:
    """Merge the first two agent slots: g(P1, P3, ..) = f(P1, P1, P3, ..)."""
    return rules.CoalescedRule(rule)


def restrict(rule: rules.Rule, fixed: Sequence[Preference]) -> rules.Rule:
    """Pin agents 3..n to ``fixed``: h(P1, P2) = f(P1, P2, fixed...)."""
    return rules.RestrictedRule(rule, tuple(fixed))


# ---------------------------------------------------------------------------
# Rule-space iteration.
# ---------------------------------------------------------------------------


def _resolve_mode(
    required: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    default_samples: int,
    what: str,
    draws_per_sample: int = 1,
) -> tuple[str, int | None, int | None]:
    """Resolve auto/exhaustive/sampled against the work budget: an
    exhaustive run against its required rule checks, a sampled one against
    the rules it draws, ``draws_per_sample`` per sample."""
    limit = env_whole_number(RULE_SPACE_BUDGET_ENV, DEFAULT_RULE_SPACE_BUDGET)
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if mode == "exhaustive" and samples is not None:  # auto drops them: a suite mixes modes
        raise ValueError("exhaustive mode takes no samples; use sampled mode")
    if mode == "exhaustive" or (mode == "auto" and required <= limit):
        if required > limit:
            raise BudgetExceededError(
                f"exhaustive {what} needs {required} rule checks, over the "
                f"budget of {limit}; use sampled mode or raise {RULE_SPACE_BUDGET_ENV}"
            )
        return "exhaustive", None, None
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    samples = default_samples if samples is None else samples
    draws = samples * draws_per_sample
    if draws > limit:
        raise BudgetExceededError(
            f"sampled {what} draws {draws} rules, over the budget of {limit}; "
            f"use fewer samples or raise {RULE_SPACE_BUDGET_ENV}"
        )
    return "sampled", samples, seed


# Rules per block handed to the rule-block kernels; bounds a block's memory.
_BLOCK_RULES = 2048


def _iter_rule_blocks(
    n: int, m: int, mode: str, samples: int | None, seed: int | None
) -> Iterator[_engine.Block]:
    """The blocks of candidate rules: the one rule stream.

    A block's codes are its rule codes (sample indices when sampled).
    Exhaustive mode walks every rule code in ascending order; sampled mode
    yields the tables of ``_sampled_blocks``.
    """
    sp = _engine.space(n, m)
    if mode == "exhaustive":
        return _exhaustive_blocks(sp, (range(m),) * sp.tops_count)
    sampled = _sampled_blocks(m, sp.tops_count, samples or 0, seed)
    return (_engine.Block(sp, joined, codes) for codes, joined in sampled)


def _exhaustive_blocks(
    sp: _engine.Space, sets: tuple[Sequence[int], ...]
) -> Iterator[_engine.Block]:
    """Blocks of every table whose digit at tops code c is drawn from
    ``sets[c]``, in product order, ``_BLOCK_RULES`` each but the last; a
    block's codes are the tables' product indices (rule codes over
    ``(range(m),) * cells``).  Column c repeats each digit of ``sets[c]``
    run times in turn, run the product of the later sets' sizes: a block
    writes its window of each column with one strided slice.  Later scans
    walk these blocks again, so the memo may keep their columns."""
    cells, columns, total = len(sets), [], 1
    for digits in reversed(sets):
        # one period of the column, built once if a block holds a whole one
        fits = total * len(digits) <= _BLOCK_RULES
        tile = b"".join(bytes((d,)) * total for d in digits) if fits else b""
        columns.append((digits, total, tile))
        total *= len(digits)
    columns.reverse()
    for start in range(0, total, _BLOCK_RULES):
        end = min(start + _BLOCK_RULES, total)
        out = bytearray(cells * (end - start))
        for c, (digits, run, tile) in enumerate(columns):
            if tile:
                window = tile[start % len(tile) :] + tile * ((end - start) // len(tile) + 1)
            else:  # the at most len(digits) + 1 runs that meet the block
                window = b"".join([
                    bytes((digits[i % len(digits)],))
                    * (min(end, (i + 1) * run) - max(start, i * run))
                    for i in range(start // run, (end - 1) // run + 1)
                ])
            out[c::cells] = window[: end - start]
        yield _engine.Block(sp, bytes(out), range(start, end), keep=True)


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


def sample_efficient_tops_tables(
    n: int, m: int, count: int, seed: int
) -> list[rules.TopsTableRule]:
    """Seeded uniform sample of tops-table rules whose every cell selects a top.

    Such rules are unanimous and efficient by construction of the sample.
    """
    check_dims(n, m)
    sp = _engine.space(n, m)
    rng = random.Random(seed)
    return [
        rules.TopsTableRule(n, m, tuple(map(rng.choice, sp.cell_tops_sets)))
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
) -> Iterator[rules.TopsTableRule]:
    """Stream tops-table rules in ascending rule-code order, optionally filtered.

    Filters (any of "unanimous", "efficient", "strategy-proof", "dictatorial")
    short-circuit cheapest first.  Exhaustive mode requires the rule space to
    fit the budget; sampled mode draws uniform tables from a seeded generator.
    """
    check_dims(n, m)
    ordered = _ordered_filters(filters)
    resolved, eff_samples, eff_seed = _resolve_mode(
        rule_space_size(n, m), mode, samples, seed, DEFAULT_CENSUS_SAMPLES,
        f"enumeration at (n={n}, m={m})",
    )
    if "strategy-proof" in ordered:
        check_profile_work(n, m)

    def gen() -> Iterator[rules.TopsTableRule]:
        for block in _iter_rule_blocks(n, m, resolved, eff_samples, eff_seed):
            for r in _engine.bit_indices(_filter_mask(ordered, block, block.full)):
                yield rules.TopsTableRule(n, m, tuple(block.digits(r)))

    return gen()


def _ordered_filters(filters: Sequence[str]) -> tuple[str, ...]:
    for name in filters:
        if name not in FILTER_NAMES:
            raise ValueError(
                f"unknown filter {name!r}; expected one of {', '.join(FILTER_NAMES)}"
            )
    return tuple(name for name in _FILTER_ORDER if name in filters)


def _filter_mask(filters: Iterable[str], block: _engine.Block, within: int) -> int:
    """The rules of ``within`` passing every one of ``filters``, each stage
    tested on the survivors of the stages before it."""
    for name in filters:
        within = _stage_mask(name, block, within)
    return within


def _stage_mask(name: str, block: _engine.Block, within: int) -> int:
    """The rules of ``within`` passing one filter, from the block's columns."""
    if not within:
        return 0
    if name == "unanimous":
        return _engine.block_unanimous(block, within)
    if name == "efficient":
        return _engine.block_efficient_cells(block, within)
    if name == "dictatorial":
        return reduce(or_, _engine.block_dictators(block, within))
    return within & ~_engine.block_manipulable(block, within)


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
    blocks: Iterator[_engine.Block], n: int, m: int, filters: tuple[str, ...]
) -> tuple[list[int], list[tuple[str, bool]]]:
    """Cascade tallies in ``CENSUS_STAGES`` order, and (rule string,
    dictatorial) per strategy-proof survivor.

    Per block, each stage is one bitset within the stage before it.  The
    rules passing the prefilters pass those stages already, so a stage that
    is also a prefilter keeps its input and is not tested again.  A block
    read once (one the memo does not keep) with no prefilter but unanimity
    is cut to its unanimous rules first, from the unanimous cells' digits,
    and the rest of the cascade reads the columns of the cut block alone.
    """
    tallies = [0] * len(CENSUS_STAGES)
    survivors: list[tuple[str, bool]] = []
    for block in blocks:
        cut_first = not block.keep and filters in ((), ("unanimous",))
        # stages every rule of a (cut) block has passed already
        passed = ("unanimous",) if cut_first else filters
        if cut_first:
            unanimous = _engine.block_unanimous_digits(block)
            total = unanimous.bit_count() if filters else block.count
            if not unanimous:  # nothing to build columns of
                tallies[0] += total
                continue
            block = block.cut(unanimous)
            kept = block.full
        else:
            kept = _filter_mask(filters, block, block.full)
        cascade = [kept]
        for name in FILTER_NAMES:  # the cascade order
            if name not in passed:
                kept = _stage_mask(name, block, kept)
            cascade.append(kept)
        counts = [bits.bit_count() for bits in cascade]
        if cut_first:
            counts[0] = total
        tallies = [t + c for t, c in zip(tallies, counts)]
        strategy_proof, dictatorial = cascade[3], cascade[4]
        for r in _engine.bit_indices(strategy_proof):
            rule = _engine._tops_string(n, m, block.digits(r))
            survivors.append((rule, bool((dictatorial >> r) & 1)))
    return tallies, survivors


def census(
    n: int,
    m: int,
    *,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
    filters: Sequence[str] = (),
) -> CensusReport:
    """Count the axiom cascade over the tops-table rule space.

    In exhaustive mode the strategy-proof survivors are compared element-wise
    (in ascending rule-code order) with the dictatorships.  Pre-filters
    restrict the enumerated space before counting.  Sampled mode draws
    uniform rules from a seeded generator, so identical seeds reproduce
    identical reports.
    """
    check_dims(n, m)
    ordered_filters = _ordered_filters(filters)
    resolved, eff_samples, eff_seed = _resolve_mode(
        rule_space_size(n, m), mode, samples, seed, DEFAULT_CENSUS_SAMPLES,
        f"census at (n={n}, m={m})",
    )
    check_profile_work(n, m)  # the cascade's strategy-proofness stage
    t0 = perf_counter()
    blocks = _iter_rule_blocks(n, m, resolved, eff_samples, eff_seed)
    tallies, survivors = _census_scan(blocks, n, m, ordered_filters)
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
    n: int, m: int, filters: Sequence[str] = ()
) -> Iterator[tuple[Sequence[int], list[int]]]:
    """Per-rule census detail (exhaustive only): per rule block, the codes
    of the rules passing ``filters``, ascending, and one class key per rule:
    bit i is its ``FILTER_NAMES[i]`` verdict, the bits above them k, its
    count of non-dictatorial tops cells.  The definitional
    ``_engine.block_manipulable`` decides strategy-proofness, never k.
    """
    check_dims(n, m)
    _resolve_mode(
        rule_space_size(n, m), "exhaustive", None, None, DEFAULT_CENSUS_SAMPLES,
        f"census at (n={n}, m={m})",
    )
    ordered = _ordered_filters(filters)
    check_profile_work(n, m)  # the strategy-proof column

    def gen() -> Iterator[tuple[Sequence[int], list[int]]]:
        for block in _iter_rule_blocks(n, m, "exhaustive", None, None):
            kept = _filter_mask(ordered, block, block.full)
            if not kept:
                continue
            if kept != block.full:
                block = block.cut(kept)
            # a column that is also a prefilter holds for every kept rule
            planes = [block.full if name in ordered else _stage_mask(name, block, block.full)
                      for name in FILTER_NAMES]
            planes += _engine.bit_planes(_engine._nondictatorial_cells(block))
            yield block.codes, _engine.plane_counts(planes, block.count)

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


def _axiom_values(rule: rules.Rule) -> dict:
    """The five axiom values of a counterexample certificate, each a scan of
    the rule's full table, built once."""
    table = rules.as_full_table(rule)
    return {
        "unanimous": rules.is_unanimous(table),
        "tops_only": rules.is_tops_only(table),
        "efficient": rules.is_efficient(table),
        "strategy_proof": rules.is_strategy_proof(table),
        "dictator": rules.find_dictator(table),
    }


def _resolve_lemma(
    lemma: str, n: int, m: int, mode: str, samples: int | None, seed: int
) -> tuple[str, str, int | None, int | None]:
    """The check id, mode, samples and seed ``verify_lemma`` runs with; raises
    for every input it rejects before the check starts."""
    lemma = lemma.upper()
    if lemma not in LEMMA_DESCRIPTIONS:
        known = ", ".join(sorted(LEMMA_DESCRIPTIONS))
        raise UnknownLemmaError(f"unknown check id {lemma!r}; known ids: {known}")
    check_dims(n, m)
    size = rule_space_size(n, m)
    pairs = lemma == "C2"  # C2 draws two rules per sample
    resolved, eff_samples, eff_seed = _resolve_mode(
        size * size if pairs else size, mode, samples, seed, _DEFAULT_SAMPLES[lemma],
        f"{lemma} at (n={n}, m={m})", 2 if pairs else 1,
    )
    check_profile_work(n, m)
    return lemma, resolved, eff_samples, eff_seed


def verify_lemma(
    lemma: str,
    n: int,
    m: int,
    *,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
    scope: dict | None = None,
) -> VerificationReport:
    """Run one suite check and report pass/fail with any counterexample.

    ``mode="auto"`` runs exhaustively when the rule space (or, for C2, the
    pair space) fits the budget and falls back to seeded sampling otherwise.
    ``scope`` is a dict shared by the calls of one run: a check keeps there
    what a later check of the run reads instead of scanning again (L5's
    verdict counts for C2 and R1, one stream pass for L1 and C1).  Pass a
    new one per run; a call without one scans for itself.
    """
    lemma, resolved, eff_samples, eff_seed = _resolve_lemma(lemma, n, m, mode, samples, seed)
    from . import _lemmas  # here, not at the top: a census never compiles the runners

    t0 = perf_counter()
    passed, checks, counterexample, detail = _lemmas._LEMMA_IMPLS[lemma](
        n, m, resolved, eff_samples, eff_seed, {} if scope is None else scope
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

    rule: rules.MajorityLexRule
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
    rule = rules.MajorityLexRule(n)
    return CounterexampleCertificate(rule=rule, **_axiom_values(rule))
