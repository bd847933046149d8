"""The nine suite checks behind ``constructions.verify_lemma``.

``verify_lemma`` imports this module on its first call, so a run that never
checks a lemma (the census, ``inspect``, ``classify``) never compiles it.
Each ``_verify_*`` runner takes ``(n, m, mode, samples, seed)``
with the mode already resolved against the budget, and returns ``(passed,
checks, counterexample, detail)``; ``_LEMMA_IMPLS`` maps the check ids of
``constructions.LEMMA_DESCRIPTIONS`` to them.

The runners read the rule stream of ``constructions`` (``_iter_rule_blocks``)
an ``_engine.Block`` at a time, in this process, and every stage is a
bitset over a block from the kernels of ``_engine``.  L4 and R2 quantify
over the tops-only efficient class, the tables selecting one of the agents'
tops at every tops cell.  Exhaustively they walk it as the product of the
cells' tops sets (``constructions._exhaustive_blocks`` over
``Space.cell_tops_sets``), whose blocks the memo keeps, as it keeps the
tops-table stream's: both checks walk it.  Sampled, they draw from it.  L3
still tests efficiency by its definition over the tops-table stream.  The
other blocks the runners build (the sampled class, the dictatorships that
anchor a sample, and C2's drawn codes) come from one chunker,
``_table_blocks``, and are read once, so the memo does not keep them.  L4,
L5 and C2 read per-profile verdicts (``block_profile_verdicts``), R1 and R2
read cell counts (``block_cell_masks``), and L1, C1 and L3 read Pareto
efficiency from the profile rows (``block_efficient_definitional``).  L1
and C1 are one scan (``_strategy_proof_unanimous_scan``) with their own
counterexample kind and closed-form test.  C2 counts |M_f| and |D_f| apart,
so the duality it checks is not built into its counts.  When the rule space
is no larger than its draws (exhaustive, or sampled at (2,3) by default) it
counts every rule of the tops-table stream, indexed by rule code, so the
suite at (2,3) reads the columns the other checks keep; otherwise ((4,2),
(3,3), (2,4)) it reads blocks of its distinct drawn codes only.  THM is the
census.

Names these runners share with ``constructions`` that callers may patch
there are read through that module at call time: ``_BLOCK_RULES``, the
census, the counterexample certificate and the object-layer predicates of
the closed-form checks.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain, islice
from operator import and_, or_

from . import _engine, constructions
from .constructions import (
    _iter_rule_blocks,
    _rule_string_from_digits,
    _stage_mask,
    rule_space_size,
)
from .prefs import profile_from_code
from .rules import (
    BordaLexRule,
    ConstantRule,
    DictatorRule,
    MajorityLexRule,
    Rule,
    as_tops_table,
    parse_rule,
)


def _verify_l1(n, m, mode, samples, seed):
    """No unanimous, inefficient, strategy-proof rule may exist."""
    checks, counterexample, (unanimous, _, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed,
        "strategy-proof unanimous rule that is not efficient",
        lambda rule: not constructions.is_efficient(rule),
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
    unanimous = strategy_proof = closed = 0
    counterexample = None
    for block in _iter_rule_blocks(n, m, mode, samples, seed):
        unanimous_rules = _engine.block_unanimous(block, block.full)
        sp_rules = _stage_mask("strategy-proof", block, unanimous_rules)
        # tops-only (C1) holds by construction over this space
        inefficient = sp_rules & ~_engine.block_efficient_definitional(block, sp_rules)
        if inefficient:
            r = _engine.low_bit(inefficient)
            upto = (2 << r) - 1
            unanimous += (unanimous_rules & upto).bit_count()
            strategy_proof += (sp_rules & upto).bit_count()
            rule_string = _rule_string_from_digits(n, m, block.digits(r))
            counterexample = {"kind": kind, "rule": rule_string}
            break
        unanimous += unanimous_rules.bit_count()
        strategy_proof += sp_rules.bit_count()
    else:
        for rule in _closed_form_library(n, m):
            closed += 1
            table = constructions.as_full_table(rule)  # built once; every question scans it
            if constructions.is_strategy_proof(table) and constructions.is_unanimous(table):
                strategy_proof += 1
                if closed_form_fails(table):
                    counterexample = {"kind": kind, "rule": rule.to_string()}
                    break
    return unanimous + closed, counterexample, (unanimous, strategy_proof, closed)


def _verify_l3(n, m, mode, samples, seed):
    """Pareto-efficient tops-table rules select some agent's top everywhere."""
    sp = _engine.space(n, m)
    checks = 0
    counterexample = None
    for block in _iter_rule_blocks(n, m, mode, samples, seed):
        efficient = _engine.block_efficient_definitional(block, block.full)
        nobodys_top = efficient & ~_engine.block_efficient_cells(block, efficient)
        if nobodys_top:
            r = _engine.low_bit(nobodys_top)
            checks += (efficient & ((2 << r) - 1)).bit_count()
            digits = block.digits(r)
            tc = next(
                tc for tc, tops in enumerate(sp.cell_tops_sets) if digits[tc] not in tops
            )
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
    """Blocks of the tops-only efficient class, the tables selecting one of
    the agents' tops at every tops cell: the whole class as a product
    stream, or ``samples`` uniform draws from it."""
    sp = _engine.space(n, m)
    if mode == "exhaustive":
        return constructions._exhaustive_blocks(sp, sp.cell_tops_sets)
    rng = random.Random(seed)
    # one uniform draw of each cell's digit from its tops set, in tops-code order
    draws = (bytes(map(rng.choice, sp.cell_tops_sets)) for _ in range(samples or 0))
    return _table_blocks(sp, draws)


def _table_blocks(sp: _engine.Space, tables: Iterable[bytes]) -> Iterator[_engine.Block]:
    """An iterable of digit tables cut into blocks of at most ``_BLOCK_RULES``,
    read once; a block's codes are its tables' positions in ``tables``."""
    tables = iter(tables)
    start = 0
    while chunk := list(islice(tables, constructions._BLOCK_RULES)):
        yield _engine.Block(sp, b"".join(chunk), range(start, start + len(chunk)))
        start += len(chunk)


def _verify_l4(n, m, mode, samples, seed):
    """Within tops-only efficient rules: every profile dictatorial iff dictatorial."""
    sp = _engine.space(n, m)
    checks = 0
    counterexample = None
    dictators = 0
    for block in _te_blocks(n, m, mode, samples, seed):
        dictatorial, _ = _engine.block_profile_verdicts(block)
        everywhere = reduce(and_, dictatorial, block.full)  # every profile dictatorial
        agents = _engine.block_dictators(block, block.full)
        is_dictator = reduce(or_, agents)
        mismatch = everywhere ^ is_dictator
        if mismatch:
            r = _engine.low_bit(mismatch)
            checks += r + 1
            dictators += (is_dictator & ((2 << r) - 1)).bit_count()
            counterexample = {
                "kind": "all-profiles-dictatorial mismatch",
                "rule": _rule_string_from_digits(n, m, block.digits(r)),
                "dictatorial_profiles": sum((d >> r) & 1 for d in dictatorial),
                "profiles": sp.profile_count,
                "dictator": next(
                    (i for i, rules in enumerate(agents) if (rules >> r) & 1), None
                ),
            }
            break
        checks += block.count
        dictators += is_dictator.bit_count()
    detail = {"dictators": dictators}
    return counterexample is None, checks, counterexample, detail


def _l5_block(block: _engine.Block) -> tuple[int, int, dict | None]:
    """Rules and checks of the partition scan over one block of rules, which
    stops at the first failing (rule, profile) in (rule, profile code) order.

    Per profile and rule, the verdict must be exactly one of dictatorial and
    manipulable, and equal to the verdict at the first profile of its tops
    cell (which passed, or the scan would have stopped there).  That second
    half compares verdicts computed from the same inputs:
    ``block_profile_verdicts`` reads only a row's tops code and agents'
    lines, which every profile of a tops cell shares, and tries every
    stand-in with the agent's top, not the agent's own ranking.  It can fail
    only through a wrong row or a wrong kernel.
    """
    sp, count, full = block.sp, block.count, block.full
    dictatorial, manipulable = _engine.block_profile_verdicts(block)
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
    r = _engine.low_bit(any_failing)
    pc = next(pc for pc, bits in enumerate(failing) if (bits >> r) & 1)
    if (not_one[pc] >> r) & 1:
        kind = "profile not exactly one of dictatorial/manipulable"
    else:
        kind = "verdict not constant on a same-tops cell"
    return r + 1, r * sp.profile_count + pc + 1, {
        "kind": kind,
        "rule": _rule_string_from_digits(sp.n, sp.m, block.digits(r)),
        "profile": profile_from_code(pc, sp.n, sp.m).to_text(),
        "dictatorial": bool((dictatorial[pc] >> r) & 1),
        "manipulable": bool((manipulable[pc] >> r) & 1),
    }


def _verify_l5(n, m, mode, samples, seed):
    """Partition: per rule and profile, exactly one verdict holds."""
    rules = checks = 0
    counterexample = None
    for block in _iter_rule_blocks(n, m, mode, samples, seed):
        block_rules, block_checks, counterexample = _l5_block(block)
        rules += block_rules
        checks += block_checks
        if counterexample:
            break
    detail = {"rules": rules, "profiles_per_rule": _engine.space(n, m).profile_count}
    return counterexample is None, checks, counterexample, detail


def _verify_c1(n, m, mode, samples, seed):
    """Strategy-proof unanimous rules are tops-only and efficient."""
    checks, counterexample, (_, strategy_proof, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed,
        "strategy-proof unanimous rule outside tops-only efficient",
        lambda rule: not (
            constructions.is_tops_only(rule) and constructions.is_efficient(rule)
        ),
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


def _c2_counts(n: int, m: int, codes) -> tuple[list[int], list[int]]:
    """|M_f| and |D_f| of the rules ``codes``, in their order, or of every rule
    of the space, read from the exhaustive stream, when ``codes`` is None."""
    sp = _engine.space(n, m)
    if codes is None:
        blocks = _iter_rule_blocks(n, m, "exhaustive", None, None)
    else:
        tables = (_engine.digits_from_code(code, sp.tops_count, m) for code in codes)
        blocks = _table_blocks(sp, tables)
    m_counts: list[int] = []
    d_counts: list[int] = []
    for block in blocks:
        # |M_f| and |D_f| counted apart, from the per-profile verdicts
        dictatorial, manipulable = _engine.block_profile_verdicts(block)
        m_counts += _engine.bit_counts(manipulable, block.count)
        d_counts += _engine.bit_counts(dictatorial, block.count)
    return m_counts, d_counts


def _verify_c2(n, m, mode, samples, seed):
    """Duality of the orders: f >=_d g iff g >=_m f, over rule pairs."""
    cells = _engine.space(n, m).tops_count
    size = rule_space_size(n, m)
    if mode == "exhaustive":
        pairs = ((f, g) for f in range(size) for g in range(size))
    else:
        draws = _draw_codes(random.Random(seed), size, 2 * (samples or 0))  # f, g, f, ...
        pairs = zip(draws[0::2], draws[1::2])
    if mode == "exhaustive" or size <= len(draws):
        # no more rules than the draws: every rule counted, its counts at its code
        position = range(size)
        m_counts, d_counts = _c2_counts(n, m, None)
    else:
        # the distinct codes in first-seen order, each mapped to its position
        position = dict.fromkeys(draws)
        for index, code in enumerate(position):
            position[code] = index
        m_counts, d_counts = _c2_counts(n, m, position)
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


def _extremum_scan(records, target: int, pick) -> tuple[int, int, tuple | None]:
    """The order-extremum scan of R1 and R2 over per-block records.

    ``records`` yields ``(block, flags, hits, values)`` per block: the flag
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
    for block, flags, hits, values in records:
        failing = flags ^ hits
        if extremum != target:  # then no rule hits the target
            failing = flags | sum(1 << r for r, v in enumerate(values) if v == extremum)
        if failing:
            r = _engine.low_bit(failing)
            found = index + r, block.digits(r), values[r], bool((flags >> r) & 1)
            return total, extremum, found
        index += len(values)
    return total, extremum, None


def _no_cells(nondictatorial: list[int], block: _engine.Block) -> int:
    """The rules of a block with no non-dictatorial tops cell: |M_f| = 0."""
    return block.full & ~reduce(or_, nondictatorial, 0)


def _verify_r1(n, m, mode, samples, seed):
    """Strategy-proof iff minimal in the manipulability order (iff M empty).

    |M_f| from ``block_cell_masks`` counts the non-dictatorial profiles, the
    manipulable ones only where L5 holds at this (n, m): "M empty" leans on L5.
    """
    sp = _engine.space(n, m)
    blocks = _iter_rule_blocks(n, m, mode, samples, seed)
    if mode == "sampled":
        # the full pool always contains the dictatorships; anchor the sample
        blocks = chain(blocks, _table_blocks(sp, map(bytes, sp.dictator_tables)))

    def records():
        for block in blocks:
            nondictatorial, m_counts, _ = _engine.block_cell_masks(block)
            strategy_proof = block.full & ~_engine.block_manipulable(block, block.full)
            yield block, strategy_proof, _no_cells(nondictatorial, block), m_counts

    rules, min_m, found = _extremum_scan(records(), 0, min)
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


def _verify_r2(n, m, mode, samples, seed):
    """Dictatorial iff maximal in the dictatorial-power order over the
    tops-only efficient pool (iff every profile is dictatorial)."""
    sp = _engine.space(n, m)
    blocks = _te_blocks(n, m, mode, samples, seed)
    if mode == "sampled":
        # the pool always contains the dictatorships; anchor the sample
        blocks = chain(blocks, _table_blocks(sp, map(bytes, sp.dictator_tables)))

    def records():
        for block in blocks:
            nondictatorial, _, d_counts = _engine.block_cell_masks(block)
            dictatorial = reduce(or_, _engine.block_dictators(block, block.full))
            yield block, dictatorial, _no_cells(nondictatorial, block), d_counts

    pool, max_d, found = _extremum_scan(records(), sp.profile_count, max)
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


def _verify_thm(n, m, mode, samples, seed):
    """Strategy-proof unanimous tops-table rules are exactly the dictatorships."""
    report = constructions.census(n, m, mode=mode, samples=samples, seed=seed)
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
            "certificate": constructions._axiom_values(rule),
        }
    detail = {"counts": report.counts()}
    return passed, report.total, counterexample, detail

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
