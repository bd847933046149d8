"""The nine suite checks behind ``constructions.verify_lemma``.

``verify_lemma`` imports this module on its first call, so a run that never
checks a lemma (the census, ``inspect``, ``classify``) never compiles it.
Each ``_verify_*`` runner takes ``(n, m, mode, samples, seed, scope)``
with the mode already resolved against the budget, and returns ``(passed,
checks, counterexample, detail)``; ``_LEMMA_IMPLS`` maps the check ids of
``constructions.LEMMA_DESCRIPTIONS`` to them.  ``scope`` is a dict that the
checks of one ``lemmas`` run share (a call of its own gets an empty one),
so nothing a check derives outlives the run.

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
L5, C2 and R1 read per-profile verdicts (``block_profile_verdicts``), R2
reads cell counts (``block_cell_masks``), and L1, C1 and L3 read Pareto
efficiency from the profile rows (``block_efficient_definitional``).

Within a run each block's verdicts are computed once.  An exhaustive L5
that passes leaves in the scope, per block of the tops-table stream, the
carry planes (``_engine.bit_planes``) of its rules' |M_f| and |D_f|; an
exhaustive R1 and a C2 that counts the whole stream read them instead of
scanning again.  Any other stream, a check before L5, or a run where L5
found a counterexample scans for itself.  L1 and C1 are one scan
(``_strategy_proof_unanimous_scan``) with their own counterexample kind and
closed-form test, and the scope keeps its stream half for the second.

C2 counts |M_f| and |D_f| apart, so the duality it checks is not built into
its counts.  When the rule space is no larger than its draws (exhaustive,
or sampled at (2,3) by default) it counts every rule of the tops-table
stream, indexed by rule code; otherwise ((4,2), (3,3), (2,4)) it reads
blocks of its distinct drawn codes only.  When the distinct (|M_f|, |D_f|)
classes of the counted rules, sorted by |M_f|, strictly rise in |M_f| and
strictly fall in |D_f|, no pair can fail and C2 reports every pair
checked; otherwise it walks its pairs to the first failing one.  THM is
the census.

Names these runners share with ``constructions`` that callers may patch
there are read through that module at call time: ``_BLOCK_RULES``, the
census, the counterexample certificate and the object-layer predicates of
the closed-form checks.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain, islice, product
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


def _verify_l1(n, m, mode, samples, seed, scope):
    """No unanimous, inefficient, strategy-proof rule may exist."""
    checks, counterexample, (unanimous, _, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed, scope,
        "strategy-proof unanimous rule that is not efficient",
        lambda rule: not constructions.is_efficient(rule),
    )
    detail = {"unanimous_rules": unanimous, "closed_forms": closed}
    return counterexample is None, checks, counterexample, detail


def _strategy_proof_unanimous_scan(
    n, m, mode, samples, seed, scope, kind, closed_form_fails
):
    """The scan of L1 and C1: every unanimous rule of the stream, then the
    closed-form library; stops at the first strategy-proof unanimous rule
    that is not efficient (``closed_form_fails`` for the closed forms).  The
    stream half is the same for both checks, so the run's scope keeps it.

    Returns checks, the counterexample of ``kind`` or None, and the counts
    (unanimous stream rules, strategy-proof unanimous rules, closed forms).
    """
    key = ("strategy-proof unanimous stream", n, m, mode, samples, seed)
    if key not in scope:
        scope[key] = _strategy_proof_unanimous_stream(n, m, mode, samples, seed)
    unanimous, strategy_proof, inefficient = scope[key]
    closed = 0
    counterexample = None
    if inefficient:
        counterexample = {"kind": kind, "rule": inefficient}
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


def _strategy_proof_unanimous_stream(n, m, mode, samples, seed):
    """The stream half of ``_strategy_proof_unanimous_scan``: the unanimous
    and the strategy-proof unanimous rules up to the first of those that is
    not efficient, and that rule's string, or None."""
    unanimous = strategy_proof = 0
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
            return unanimous, strategy_proof, _rule_string_from_digits(n, m, block.digits(r))
        unanimous += unanimous_rules.bit_count()
        strategy_proof += sp_rules.bit_count()
    return unanimous, strategy_proof, None


def _verify_l3(n, m, mode, samples, seed, scope):
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


def _verify_l4(n, m, mode, samples, seed, scope):
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


def _l5_block(block: _engine.Block, planes=None) -> tuple[int, int, dict | None]:
    """Rules and checks of the partition scan over one block of rules, which
    stops at the first failing (rule, profile) in (rule, profile code) order;
    appends the block's ``_verdict_planes`` to ``planes`` if given.

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
    dictatorial, manipulable = verdicts = _engine.block_profile_verdicts(block)
    if planes is not None:
        planes.append(_verdict_planes(block, verdicts))
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


def _verify_l5(n, m, mode, samples, seed, scope):
    """Partition: per rule and profile, exactly one verdict holds."""
    rules = checks = 0
    counterexample = None
    planes = [] if mode == "exhaustive" else None
    for block in _iter_rule_blocks(n, m, mode, samples, seed):
        block_rules, block_checks, counterexample = _l5_block(block, planes)
        rules += block_rules
        checks += block_checks
        if counterexample:
            break
    if planes is not None and counterexample is None:  # C2 and R1 count them
        scope[("verdict planes", n, m)] = planes
    detail = {"rules": rules, "profiles_per_rule": _engine.space(n, m).profile_count}
    return counterexample is None, checks, counterexample, detail


def _verify_c1(n, m, mode, samples, seed, scope):
    """Strategy-proof unanimous rules are tops-only and efficient."""
    checks, counterexample, (_, strategy_proof, closed) = _strategy_proof_unanimous_scan(
        n, m, mode, samples, seed, scope,
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


def _verdict_planes(block: _engine.Block, verdicts=None) -> tuple[int, list[int], list[int]]:
    """A block's rule count and the carry planes (``_engine.bit_planes``) of
    its rules' |M_f| and |D_f|, counted apart from the per-profile verdicts
    (``verdicts``, the block's ``block_profile_verdicts``, if given)."""
    dictatorial, manipulable = verdicts or _engine.block_profile_verdicts(block)
    return block.count, _engine.bit_planes(manipulable), _engine.bit_planes(dictatorial)


def _c2_planes(n: int, m: int, codes, scope: dict) -> list:
    """``_verdict_planes`` per block of the rules ``codes``, in their order,
    or of every rule of the space, from the exhaustive stream, when ``codes``
    is None: L5's, if it passed there earlier in the run."""
    if codes is None:
        shared = scope.get(("verdict planes", n, m))
        if shared is not None:
            return shared
        blocks = _iter_rule_blocks(n, m, "exhaustive", None, None)
    else:
        sp = _engine.space(n, m)
        tables = (_engine.digits_from_code(code, sp.tops_count, m) for code in codes)
        blocks = _table_blocks(sp, tables)
    return [_verdict_planes(block) for block in blocks]


def _values(planes: list[int], rules: int) -> list[tuple[int, int]]:
    """(rules, value) per distinct value the ``rules`` hold in ``planes``,
    split by one plane after the other."""
    groups = [(rules, 0)]
    for j, plane in enumerate(planes):
        groups = [
            (part, value | bit << j)
            for group, value in groups
            for part, bit in ((group & ~plane, 0), (group & plane, 1))
            if part
        ]
    return groups


def _classes(records) -> set[tuple[int, int]]:
    """The distinct (|M_f|, |D_f|) of the rules of ``_verdict_planes`` records."""
    classes = set()
    for count, m_planes, d_planes in records:
        for rules, m_count in _values(m_planes, (1 << count) - 1):
            classes.update((m_count, d_count) for _, d_count in _values(d_planes, rules))
    return classes


def _dual(classes) -> bool:
    """Whether no pair of rules from these (|M_f|, |D_f|) classes can break
    the duality: sorted by |M_f|, |M_f| strictly rises and |D_f| strictly
    falls.  Equal |M_f| sort the larger |D_f| first, so that each comparison
    alone rejects its own kind of tie."""
    ordered = sorted(classes, key=lambda c: (c[0], -c[1]))
    return all(m1 < m2 and d1 > d2 for (m1, d1), (m2, d2) in zip(ordered, ordered[1:]))


def _verify_c2(n, m, mode, samples, seed, scope):
    """Duality of the orders: f >=_d g iff g >=_m f, over rule pairs.

    The pairs are walked only when the (|M_f|, |D_f|) classes of the counted
    rules could break the duality, so that the first failing pair is found."""
    size = rule_space_size(n, m)
    if mode != "exhaustive":
        draws = _draw_codes(random.Random(seed), size, 2 * samples)  # f, g, f, ...
    if mode == "exhaustive" or size <= len(draws):
        # no more rules than the draws: every rule counted, its counts at its code
        position = range(size)
        records = _c2_planes(n, m, None, scope)
    else:
        # the distinct codes in first-seen order, each mapped to its position
        position = dict.fromkeys(draws)
        for index, code in enumerate(position):
            position[code] = index
        records = _c2_planes(n, m, position, scope)
    if _dual(_classes(records)):  # no pair of the counted rules can fail
        checks = size * size if mode == "exhaustive" else samples
        counterexample = None
    else:
        if mode == "exhaustive":
            pairs = product(range(size), repeat=2)
        else:
            pairs = zip(draws[0::2], draws[1::2])
        checks, counterexample = _c2_walk(n, m, pairs, position, records)
    if mode == "exhaustive":
        distinct = size
    else:  # the rules met up to the last pair checked
        distinct = len(set(draws[: 2 * checks]))
    detail = {"distinct_rules": distinct}
    return counterexample is None, checks, counterexample, detail


def _c2_walk(n, m, pairs, position, records) -> tuple[int, dict | None]:
    """C2's pairs in order, up to the first that breaks the duality: checks
    and the counterexample or None."""
    cells = _engine.space(n, m).tops_count
    m_counts, d_counts = [], []
    for count, m_planes, d_planes in records:
        m_counts += _engine.plane_counts(m_planes, count)
        d_counts += _engine.plane_counts(d_planes, count)
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
    return checks, counterexample


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


def _in_none(bitsets: list[int], block: _engine.Block) -> int:
    """The rules of a block in none of ``bitsets``: with no non-dictatorial
    tops cell, or with a count of 0 in ``bit_planes``."""
    return block.full & ~reduce(or_, bitsets, 0)


def _verify_r1(n, m, mode, samples, seed, scope):
    """Strategy-proof iff minimal in the manipulability order (iff M empty).

    Strategy-proofness comes from ``block_manipulable`` and |M_f| from the
    manipulable verdicts of ``block_profile_verdicts``: two kernels, neither
    the tops-cell criterion.  An exhaustive R1 reads L5's planes of them
    when L5 passed earlier in the run.
    """
    sp = _engine.space(n, m)
    blocks = _iter_rule_blocks(n, m, mode, samples, seed)
    shared = scope.get(("verdict planes", n, m)) if mode == "exhaustive" else None
    if mode == "sampled":
        # the full pool always contains the dictatorships; anchor the sample
        blocks = chain(blocks, _table_blocks(sp, map(bytes, sp.dictator_tables)))

    def records():
        for index, block in enumerate(blocks):
            _, m_planes, _ = shared[index] if shared else _verdict_planes(block)
            strategy_proof = block.full & ~_engine.block_manipulable(block, block.full)
            m_counts = _engine.plane_counts(m_planes, block.count)
            yield block, strategy_proof, _in_none(m_planes, block), m_counts

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


def _verify_r2(n, m, mode, samples, seed, scope):
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
            yield block, dictatorial, _in_none(nondictatorial, block), d_counts

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


def _verify_thm(n, m, mode, samples, seed, scope):
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
