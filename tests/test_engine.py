"""Integer kernels against their definitional object twins."""

import ast
import math
import random
from itertools import product
from pathlib import Path

import pytest

import _definitional
from gsverify import (
    FullTableRule,
    ManipulationWitness,
    TopsTableRule,
    Verdict,
    classify_profile,
    decode_preference,
    enumerate_preferences,
    enumerate_profiles,
    find_manipulation,
    profile_from_code,
    sample_efficient_tops_tables,
)
from gsverify import _engine, _lemmas, constructions
from gsverify._engine import (
    Block,
    bit_counts,
    bit_flags,
    block_cell_masks,
    block_dictators,
    block_efficient_cells,
    block_efficient_definitional,
    block_manipulable,
    block_profile_verdicts,
    block_unanimous,
    digits_from_code,
    full_table_manipulation,
    space,
)

# verdict bits of the per-rule reference scan, one int per profile
DICTATORIAL = 1
MANIPULABLE = 2
VERDICT_BITS = {Verdict.DICTATORIAL: DICTATORIAL, Verdict.MANIPULABLE: MANIPULABLE}


def table_manipulation(table, sp):
    """First manipulation of a tops-table rule, or None if it is strategy-proof.

    Per-rule reference scan in (profile code, agent, misreport code) order:
    every profile, every agent, every one of the m! misreports.  Returns
    (profile_code, agent, misreport_code, sincere, improved), the integer
    form of the witness the definitional oracle finds on the same rule.
    """
    position = sp.position
    top_of = sp.top_of
    weights = sp.tops_weights
    pref_range = range(sp.fact)
    for pc, pref_codes in enumerate(product(pref_range, repeat=sp.n)):
        tc = sp.tops_code_of(pref_codes)
        out = table[tc]
        for i, p in enumerate(pref_codes):
            pos = position[p]
            out_rank = pos[out]
            w = weights[i]
            base = tc - top_of[p] * w
            for q in pref_range:
                y = table[base + top_of[q] * w]
                if pos[y] < out_rank:
                    return pc, i, q, out, y
    return None


def table_profile_verdicts(table, sp):
    """Per-rule reference for ``block_profile_verdicts``: the verdict per
    profile code of a tops-table rule, DICTATORIAL | MANIPULABLE bits.

    Raw quantifiers, each profile from its own row: for each agent whose top
    is not the outcome, the outcomes reached by all m! misreports form a
    bitmask.  The agent has power if it reaches anything but the outcome, and
    the profile is manipulable if some stand-in preference with that agent's
    top ranks a reached outcome strictly above the outcome.
    """
    bits = tuple(1 << x for x in range(sp.m))
    # per top, per preference with that top, the alternatives ranked above x
    stand_ins = [
        [
            [sum(bits[y] for y in ranking[: ranking.index(x)]) for x in range(sp.m)]
            for ranking in sp.rankings
            if ranking[0] == top
        ]
        for top in range(sp.m)
    ]
    verdicts = []
    append = verdicts.append
    for tc, _dominated, agents in _engine.profile_rows(sp.n, sp.m):
        out = table[tc]
        out_bit = bits[out]
        verdict = DICTATORIAL
        for top, line in agents:
            if top == out:
                continue
            reached = 0
            for c in line:
                reached |= bits[table[c]]
            if reached == out_bit:  # the sincere top always reaches the outcome
                continue
            verdict = 0
            for above in stand_ins[top]:
                if reached & above[out]:
                    verdict = MANIPULABLE
                    break
            if verdict:
                break
        append(verdict)
    return verdicts


def table_efficient_definitional(table, sp):
    """Per-rule reference for ``block_efficient_definitional``: no profile row's
    enumerated dominated mask holds the rule's outcome at that row's cell."""
    for tc, dominated, _agents in _engine.profile_rows(sp.n, sp.m):
        if (dominated >> table[tc]) & 1:
            return False
    return True


def table_unanimous(table, sp):
    """Per-rule reference for ``block_unanimous``: every unanimous cell selects
    the shared top."""
    return all(table[tc] == x for tc, x in sp.unanimous_cells)


def table_efficient_cells(table, sp):
    """Per-rule reference for ``block_efficient_cells``: every cell selects one
    of its agents' tops."""
    return all(table[tc] in tops for tc, tops in enumerate(sp.cell_tops_sets))


def table_dictator(table, sp):
    """Per-rule reference for ``block_dictators``: the agent whose dictatorship
    the table is, or None."""
    for i, dict_table in enumerate(sp.dictator_tables):
        if tuple(table) == dict_table:
            return i
    return None


def object_witness(n, m, table):
    """The oracle's witness on the materialized rule, as the kernel's int tuple."""
    return _definitional.witness_tuple(
        _definitional.find_manipulation(TopsTableRule(n, m, table))
    )


def all_tables(n, m):
    return list(product(range(m), repeat=m**n))


@pytest.mark.parametrize("n,m,strategy_proof", [(2, 2, 6), (3, 2, 20), (2, 3, 5)])
def test_kernel_matches_object_layer_on_whole_space(n, m, strategy_proof):
    # the tops-table reference scan and the full-table kernel behind
    # find_manipulation both against the object-level oracle, witness for
    # witness; the full tables repeat each tops cell's outcome at its profiles
    sp = space(n, m)
    tops_codes = [
        sp.tops_code_of([q.rank_code for q in p.prefs]) for p in enumerate_profiles(n, m)
    ]
    oracle = {t: object_witness(n, m, t) for t in all_tables(n, m)}
    mismatches = [t for t, w in oracle.items() if table_manipulation(list(t), sp) != w]
    assert mismatches == []
    mismatches = [
        t for t, w in oracle.items()
        if full_table_manipulation([t[tc] for tc in tops_codes], sp) != w
    ]
    assert mismatches == []
    # None exactly where the object layer finds no manipulation
    assert sum(w is None for w in oracle.values()) == strategy_proof


def all_full_tables(n, m):
    return list(product(range(m), repeat=math.factorial(m) ** n))


def assert_full_kernel_matches_oracle(rules):
    """``full_table_manipulation`` on each rule's outcome per profile, and
    ``find_manipulation``, against the oracle, witness for witness; returns
    how many rules are strategy-proof."""
    strategy_proof = 0
    for rule in rules:
        expected = _definitional.witness_tuple(_definitional.find_manipulation(rule))
        outcomes = [rule.evaluate(p) for p in enumerate_profiles(rule.n, rule.m)]
        assert full_table_manipulation(outcomes, space(rule.n, rule.m)) == expected, rule
        witness = find_manipulation(rule)
        assert _definitional.witness_tuple(witness) == expected, rule
        assert witness is None or witness.is_valid(rule)
        strategy_proof += expected is None
    return strategy_proof


@pytest.mark.parametrize("n,m,strategy_proof", [(2, 2, 6), (3, 2, 20)])
def test_full_table_kernel_on_every_full_table(n, m, strategy_proof):
    rules = [FullTableRule(n, m, t) for t in all_full_tables(n, m)]
    # at m = 2 a preference is its top, so these are the tops tables again
    assert assert_full_kernel_matches_oracle(rules) == strategy_proof


def test_full_table_kernel_on_seeded_full_tables():
    rng = random.Random(20273)
    rules = [
        FullTableRule(2, 3, tuple(rng.randrange(3) for _ in range(36))) for _ in range(200)
    ]
    assert assert_full_kernel_matches_oracle(rules) == 0


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 4)])
def test_full_table_kernel_on_the_closed_forms(n, m):
    # the dictators and the constants are strategy-proof, Borda is not
    library = _lemmas._closed_form_library(n, m)
    assert assert_full_kernel_matches_oracle(library) == n + m


def routed_through_the_engine(name):
    """A predicate or materialiser of ``rules`` or ``classify``: ``find_*``,
    ``is_*`` or ``as_*_table``."""
    return name.startswith(("find_", "is_")) or (
        name.startswith("as_") and name.endswith("_table")
    )


def test_the_memo_policy_stays_in_the_engine():
    # only _engine reaches the column memo, only the block and the memo
    # itself take a keep flag or loose columns, and only the exhaustive
    # streams build a block with a keep flag
    memo_names = {"COLUMN_MEMO", "ColumnMemo", "_columns_of"}
    allowed = {"Block.__init__", "ColumnMemo.lookup"}
    named, takes, keeps = [], [], set()
    for path in sorted(Path(_engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in memo_names and path.stem != "_engine":
                named.append(f"{path.stem}: {name}")
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                qualname = child.name
                if isinstance(node, ast.ClassDef):
                    qualname = f"{node.name}.{child.name}"
                args = child.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if params & {"keep", "cols"} and qualname not in allowed:
                    takes.append(f"{path.stem}.{qualname}")
                for call in ast.walk(child):
                    func = getattr(call, "func", None)
                    if (getattr(func, "id", None) or getattr(func, "attr", None)) != "Block":
                        continue
                    flags = call.args[3:] + [k.value for k in call.keywords if k.arg == "keep"]
                    keeps.update((f"{path.stem}.{qualname}", ast.unparse(f)) for f in flags)
    assert not named and not takes, (named, takes)
    assert keeps == {("constructions._exhaustive_blocks", "True")}


def test_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(Path(_definitional.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""]
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert imported and not [name for name in imported if "_engine" in name]
    # nor any predicate or materialiser of the layers that run through it,
    # imported by name or reached as a module attribute
    by_name = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("gsverify", "gsverify.rules", "gsverify.classify")
        for alias in node.names
    ]
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert [name for name in by_name + attributes if routed_through_the_engine(name)] == []


def test_kernel_matches_object_layer_on_sampled_n3_m3():
    sp = space(3, 3)
    rng = random.Random(20260)
    tables = [tuple(rng.randrange(3) for _ in range(27)) for _ in range(200)]
    tables += [sp.dictator_tables[0], (1,) * 27]
    for t in tables:
        assert table_manipulation(t, sp) == object_witness(3, 3, t)


def test_every_n2_m3_witness_revalidates():
    sp = space(2, 3)
    checked = 0
    for t in all_tables(2, 3):
        found = table_manipulation(t, sp)
        if found is None:
            continue
        pc, agent, q, sincere, improved = found
        witness = ManipulationWitness(
            profile_from_code(pc, 2, 3), agent, decode_preference(q, 3), sincere, improved
        )
        assert witness.is_valid(TopsTableRule(2, 3, t))
        checked += 1
    assert checked == 3**9 - 5


def object_verdicts(n, m, table):
    """classify_profile on the materialized rule, per profile code, as kernel bits."""
    rule = TopsTableRule(n, m, tuple(table))
    return [
        VERDICT_BITS[classify_profile(rule, profile).verdict]
        for profile in enumerate_profiles(n, m)
    ]


def seeded_tables(n, m, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(m) for _ in range(m**n)) for _ in range(count)]


def constants_and_dictators(n, m):
    sp = space(n, m)
    return [(x,) * m**n for x in range(m)] + list(sp.dictator_tables)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_verdict_kernel_matches_object_layer_on_whole_space(n, m):
    sp = space(n, m)
    for t in all_tables(n, m):
        assert table_profile_verdicts(t, sp) == object_verdicts(n, m, t), t


@pytest.mark.parametrize("n,m,count", [(2, 3, 200), (3, 3, 20)])
def test_verdict_kernel_matches_object_layer_on_sampled_tables(n, m, count):
    sp = space(n, m)
    for t in seeded_tables(n, m, count, 20261) + constants_and_dictators(n, m):
        assert table_profile_verdicts(t, sp) == object_verdicts(n, m, t), t


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_pareto_kernel_matches_object_layer_on_whole_space(n, m):
    sp = space(n, m)
    for t in all_tables(n, m):
        oracle = _definitional.find_efficiency_violation(TopsTableRule(n, m, t))
        assert table_efficient_definitional(t, sp) == (oracle is None), t


def test_pareto_kernel_matches_object_layer_on_sampled_n2_m3():
    sp = space(2, 3)
    # uniform tables are almost never efficient, so half the sample draws
    # every cell from its agents' tops (efficient) with one cell perturbed
    rng = random.Random(20262)
    tables = seeded_tables(2, 3, 150, 20263)
    for _ in range(150):
        t = [rng.choice(sp.cell_tops_sets[tc]) for tc in range(sp.tops_count)]
        if rng.random() < 0.5:
            t[rng.randrange(9)] = rng.randrange(3)
        tables.append(tuple(t))
    tables += constants_and_dictators(2, 3)
    verdicts = [table_efficient_definitional(t, sp) for t in tables]
    assert verdicts == [
        _definitional.find_efficiency_violation(TopsTableRule(2, 3, t)) is None for t in tables
    ]
    assert 0 < sum(verdicts) < len(tables)


@pytest.mark.parametrize("n,m,count", [(2, 2, 0), (3, 2, 0), (2, 3, 0), (3, 3, 200)])
def test_dictator_kernel_matches_object_layer(n, m, count):
    tables = seeded_tables(n, m, count, 20269) if count else all_tables(n, m)
    tables += constants_and_dictators(n, m)
    sp = space(n, m)
    verdicts = [table_dictator(t, sp) for t in tables]
    assert verdicts == [_definitional.find_dictator(TopsTableRule(n, m, t)) for t in tables]
    # the block streams hand the kernel bytes
    assert verdicts == [table_dictator(bytes(t), sp) for t in tables]
    assert verdicts[-n:] == list(range(n))


@pytest.mark.parametrize("n,m,count", [(2, 2, 0), (3, 2, 0), (2, 3, 300)])
def test_unanimity_kernel_matches_object_layer(n, m, count):
    sp = space(n, m)
    tables = seeded_tables(n, m, count, 20264) if count else all_tables(n, m)
    tables += constants_and_dictators(n, m)
    verdicts = [table_unanimous(t, sp) for t in tables]
    assert verdicts == [
        _definitional.find_unanimity_violation(TopsTableRule(n, m, t)) is None for t in tables
    ]
    # the sampled rule stream hands the kernels bytes
    assert verdicts == [table_unanimous(bytes(t), sp) for t in tables]
    assert 0 < sum(verdicts) < len(tables)


# ---------------------------------------------------------------------------
# Rule-block kernels against the per-rule kernels.
# ---------------------------------------------------------------------------


def cell_is_dictatorial(table, sp, tc):
    """Per-rule reference: every agent whose top is not the outcome gets the
    outcome at every cell of its line."""
    tops = sp.tops_tuples[tc]
    out = table[tc]
    for i in range(sp.n):
        ti = tops[i]
        if ti == out:
            continue
        w = sp.tops_weights[i]
        base = tc - ti * w
        for x in range(sp.m):
            if table[base + x * w] != out:
                return False
    return True


def cells_masks(table, sp):
    """(dictatorial, manipulable) cell bitmasks over tops codes."""
    d_mask = 0
    m_mask = 0
    for tc in range(sp.tops_count):
        if cell_is_dictatorial(table, sp, tc):
            d_mask |= 1 << tc
        else:
            m_mask |= 1 << tc
    return d_mask, m_mask


def cell_counts(table, sp):
    """(manipulable, dictatorial) profile counts |M_f|, |D_f| from the cells."""
    d_mask, m_mask = cells_masks(table, sp)
    return (
        m_mask.bit_count() * sp.cell_profile_count,
        d_mask.bit_count() * sp.cell_profile_count,
    )


def block_of(sp, tables):
    """One block of the tables, in order."""
    return Block(sp, b"".join(map(bytes, tables)), range(len(tables)))


def rule_blocks(sp, tables):
    """The tables cut into blocks of ``constructions._BLOCK_RULES`` rules, the
    size the rule stream's blocks are bounded by."""
    size = constructions._BLOCK_RULES
    return [block_of(sp, tables[i : i + size]) for i in range(0, len(tables), size)]


def assert_blocks_match_per_rule(n, m, tables, verdicts=True):
    """Every block kernel against its per-rule reference, rule by rule; returns
    how many of the tables are strategy-proof."""
    sp = space(n, m)
    rule = strategy_proof = 0
    for block in rule_blocks(sp, tables):
        nondictatorial, m_counts, d_counts = block_cell_masks(block)
        if verdicts:
            dictatorial, manipulable = block_profile_verdicts(block)
            manipulable_rules = block_manipulable(block, block.full)
        for r in range(len(m_counts)):
            table = tables[rule]
            rule += 1
            assert (m_counts[r], d_counts[r]) == cell_counts(table, sp), table
            m_mask = sum(((bits >> r) & 1) << tc for tc, bits in enumerate(nondictatorial))
            assert m_mask == cells_masks(table, sp)[1], table
            if verdicts:
                got = [
                    ((d >> r) & 1) * DICTATORIAL | ((mp >> r) & 1) * MANIPULABLE
                    for d, mp in zip(dictatorial, manipulable)
                ]
                assert got == table_profile_verdicts(table, sp), table
                is_manipulable = table_manipulation(table, sp) is not None
                assert (manipulable_rules >> r) & 1 == is_manipulable, table
                strategy_proof += not is_manipulable
    assert rule == len(tables)
    return strategy_proof


@pytest.fixture
def odd_blocks(monkeypatch):
    # block boundaries fall inside every stream
    monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_block_kernels_match_per_rule_on_whole_space(odd_blocks, n, m):
    strategy_proof = {(2, 2): 6, (3, 2): 20, (2, 3): 5}[n, m]
    assert assert_blocks_match_per_rule(n, m, all_tables(n, m)) == strategy_proof


@pytest.mark.parametrize("n,m,count", [(3, 3, 200), (2, 4, 50)])
def test_block_kernels_match_per_rule_on_sampled_tables(odd_blocks, n, m, count):
    tables = seeded_tables(n, m, count, 20265) + constants_and_dictators(n, m)
    # the constants and the dictators are the strategy-proof ones
    assert assert_blocks_match_per_rule(n, m, tables) == m + n


def test_block_manipulable_on_cell_efficient_tables(odd_blocks):
    # cell-efficient tables get past more profiles before a manipulation
    # than uniform ones, which mostly fail at the first few
    tables = [rule.outcomes for rule in sample_efficient_tops_tables(3, 3, 200, 20268)]
    tables += constants_and_dictators(3, 3)
    sp = space(3, 3)
    first = [table_manipulation(t, sp) for t in tables]
    assert max(w[0] for w in first if w is not None) > 0
    assert assert_blocks_match_per_rule(3, 3, tables) == 3 + 3


def test_block_cell_counts_exact_past_255_cells(odd_blocks):
    # (4, 4) has 256 cells; the last table is non-dictatorial at every one
    # (agent 0 never gets its top and moves the outcome), so a count lane
    # that wraps at 255 fails here
    sp = space(4, 4)
    every_cell = tuple((t[0] + 1) % 4 for t in sp.tops_tuples)
    tables = seeded_tables(4, 4, 50, 20266) + constants_and_dictators(4, 4)
    tables += [every_cell] * 3
    assert_blocks_match_per_rule(4, 4, tables, verdicts=False)
    assert cell_counts(every_cell, sp) == (sp.profile_count, 0)


def test_block_verdicts_read_each_profile_row(monkeypatch):
    # give profile 1 the agents of another cell while keeping its tops code:
    # a kernel that copies one verdict per tops cell to its profiles cannot
    # follow, both per-profile kernels must
    sp = space(2, 3)
    rows = list(_engine.profile_rows(2, 3))
    tc, dominated, _ = rows[1]
    rows[1] = (tc, dominated, rows[12][2])
    monkeypatch.setattr(_engine, "profile_rows", lambda n, m: tuple(rows))
    tables = seeded_tables(2, 3, 50, 20267)
    dictatorial, manipulable = block_profile_verdicts(block_of(sp, tables))
    per_rule = [table_profile_verdicts(t, sp) for t in tables]
    assert sum(v[1] != v[0] for v in per_rule) > 0
    for r, verdicts in enumerate(per_rule):
        assert [
            ((d >> r) & 1) * DICTATORIAL | ((mp >> r) & 1) * MANIPULABLE
            for d, mp in zip(dictatorial, manipulable)
        ] == verdicts


def test_block_manipulable_tries_every_misreport(monkeypatch):
    # what a rule reaches depends only on the set of cells on a line; the
    # real rows list each distinct cell once, lowest first, and these list
    # them in reverse, so a kernel that skips an entry of the list misses
    # every misreport to some top whichever end it skips (at m = 2 every
    # manipulation also has a mirror image by the other misreport)
    n, m = 2, 3
    rows = tuple(
        (tc, dominated, tuple(
            (top, tuple(sorted(set(line), reverse=True)))
            for top, line in agents
        ))
        for tc, dominated, agents in _engine.profile_rows(n, m)
    )
    monkeypatch.setattr(_engine, "profile_rows", lambda n, m: rows)
    sp = space(n, m)
    tables = all_tables(n, m)
    block = block_of(sp, tables)
    manipulable = block_manipulable(block, block.full)
    assert [(manipulable >> r) & 1 == 1 for r in range(len(tables))] == [
        table_manipulation(t, sp) is not None for t in tables
    ]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_block_manipulable_answers_for_within(n, m):
    # asked about any subset of a block, the kernel gives the rules of that
    # subset the per-rule scan finds manipulable, and no rule outside it;
    # sparse subsets stop early only once each of their rules is manipulable
    sp = space(n, m)
    if (n, m) == (3, 3):
        tables = seeded_tables(3, 3, 150, 20272) + constants_and_dictators(3, 3)
        tables += [r.outcomes for r in sample_efficient_tops_tables(3, 3, 150, 20273)]
    else:
        tables = all_tables(n, m)
    rng = random.Random(20274)
    done = 0
    for block in rule_blocks(sp, tables):
        manipulable = sum(
            (table_manipulation(t, sp) is not None) << r
            for r, t in enumerate(tables[done : done + block.count])
        )
        done += block.count
        count = block.count
        masks = [0, block.full] + [rng.getrandbits(count) for _ in range(3)]
        masks += [rng.getrandbits(count) & rng.getrandbits(count) & rng.getrandbits(count)]
        for within in masks:
            got = block_manipulable(block, within)
            assert got & ~within == 0, within
            assert got == manipulable & within, within
    assert done == len(tables)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_row_lines_are_the_cells_each_misreport_reaches(n, m):
    # the block kernels and their per-rule twin read the same lines, so a
    # wrong line moves both: check each against the object layer directly
    def tops_code(profile):
        code = 0
        for t in profile.tops:
            code = code * m + t
        return code

    misreports = enumerate_preferences(m)
    rows = _engine.profile_rows(n, m)
    assert len(rows) == math.factorial(m) ** n
    for pc, (tc, _dominated, agents) in enumerate(rows):
        profile = profile_from_code(pc, n, m)
        assert tc == tops_code(profile)
        assert [top for top, _line in agents] == list(profile.tops)
        for i, (_top, line) in enumerate(agents):
            reached = [tops_code(profile.with_replaced(i, q)) for q in misreports]
            assert line == tuple(dict.fromkeys(reached)), (pc, i)


# ---------------------------------------------------------------------------
# Rule-block predicates against their per-rule twins.
# ---------------------------------------------------------------------------


def assert_predicates_match_per_rule(n, m, tables):
    """Every block predicate against its per-rule twin, bit for bit, asked
    about the whole block and about a seeded subset of it; returns per
    predicate how many of the tables pass it."""
    sp = space(n, m)
    rng = random.Random(20271)
    passed = {"unanimous": 0, "cells": 0, "pareto": 0, "dictator": 0}
    done = 0
    for block in rule_blocks(sp, tables):
        count = block.count
        chunk = tables[done : done + count]
        done += count
        for subset, within in enumerate((block.full, rng.getrandbits(count))):
            got = {
                "unanimous": block_unanimous(block, within),
                "cells": block_efficient_cells(block, within),
                "pareto": block_efficient_definitional(block, within),
            }
            dictators = block_dictators(block, within)
            for r, table in enumerate(chunk):
                asked = (within >> r) & 1 == 1
                expected = {
                    "unanimous": table_unanimous(table, sp),
                    "cells": table_efficient_cells(table, sp),
                    "pareto": table_efficient_definitional(table, sp),
                }
                for name, bits in got.items():
                    assert ((bits >> r) & 1 == 1) == (asked and expected[name]), (name, table)
                dictator = table_dictator(table, sp)
                assert [(bits >> r) & 1 == 1 for bits in dictators] == [
                    asked and dictator == i for i in range(n)
                ], table
                if not subset:
                    for name, ok in expected.items():
                        passed[name] += ok
                    passed["dictator"] += dictator is not None
    assert done == len(tables)
    return passed


@pytest.fixture(params=[7, 2048])
def block_rules(request, monkeypatch):
    monkeypatch.setattr(constructions, "_BLOCK_RULES", request.param)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_block_predicates_match_per_rule_on_whole_space(block_rules, n, m):
    tables = all_tables(n, m) + constants_and_dictators(n, m)
    passed = assert_predicates_match_per_rule(n, m, tables)
    assert passed["dictator"] == 2 * n
    for name in ("unanimous", "cells", "pareto"):
        assert 0 < passed[name] < len(tables), name


@pytest.mark.parametrize("n,m,count", [(3, 3, 200), (2, 4, 50)])
def test_block_predicates_match_per_rule_on_sampled_tables(block_rules, n, m, count):
    tables = seeded_tables(n, m, count, 20270) + constants_and_dictators(n, m)
    assert assert_predicates_match_per_rule(n, m, tables)["dictator"] == n


def test_block_efficient_definitional_reads_the_rows(monkeypatch):
    # mark agent 0's top dominated in every row: Pareto efficiency read from
    # these rows differs from the tops-cell criterion, which a kernel reading
    # the cell masks would still give (on honest rows the two agree on every
    # tops-table rule)
    rows = tuple(
        (tc, dominated | (1 << agents[0][0]), agents)
        for tc, dominated, agents in _engine.profile_rows(2, 3)
    )
    monkeypatch.setattr(_engine, "profile_rows", lambda n, m: rows)
    sp = space(2, 3)
    tables = all_tables(2, 3)
    assert_predicates_match_per_rule(2, 3, tables)
    assert any(
        table_efficient_definitional(t, sp) != table_efficient_cells(t, sp) for t in tables
    )


@pytest.mark.parametrize("count", [1, 7, 8, 2048])
def test_bit_lanes_equal_per_bit_loops(count):
    # byte lanes never carry: 300 bitsets sum past one lane's 255, and eight
    # flags fill a byte
    rng = random.Random(20274)
    bitsets = [0, (1 << count) - 1] + [rng.getrandbits(count) for _ in range(298)]
    assert bit_counts(bitsets, count) == [
        sum((bits >> r) & 1 for bits in bitsets) for r in range(count)
    ]
    for flags in (bitsets[:4], bitsets[1:9], []):
        assert list(bit_flags(flags, count)) == [
            sum(((bits >> r) & 1) << i for i, bits in enumerate(flags)) for r in range(count)
        ]


@pytest.mark.parametrize("count", [1, 7, 8, 2048])
@pytest.mark.parametrize("many", [0, 1, 255, 256, 300])
def test_bit_counts_equal_per_bit_loop(count, many):
    # 255 all-ones bitsets fill eight carry planes; 256 and 300 need a ninth,
    # whose lanes are added as a second group
    rng = random.Random(20275 + many)
    ones = (1 << count) - 1
    for bitsets in (
        [ones] * many,
        [rng.getrandbits(count) for _ in range(many)],
        [ones if rng.random() < 0.5 else rng.getrandbits(count) for _ in range(many)],
    ):
        expected = [sum((bits >> r) & 1 for bits in bitsets) for r in range(count)]
        assert bit_counts(iter(bitsets), count) == expected


def per_digit_loop(code, cells, m):
    """The digits of a rule code by one divmod per digit (the reference)."""
    digits = [0] * cells
    for i in range(cells - 1, -1, -1):
        code, digits[i] = divmod(code, m)
    return digits


@pytest.mark.parametrize("n,m,count", [(2, 2, 0), (3, 2, 0), (2, 3, 0), (3, 3, 3000), (2, 4, 3000)])
def test_digits_from_code_equals_per_digit_loop(n, m, count):
    cells = m**n
    size = m**cells
    if count:
        rng = random.Random(20272)
        codes = [0, 1, size - 1] + [rng.randrange(size) for _ in range(count)]
    else:
        codes = range(size)
    for code in codes:
        assert list(digits_from_code(code, cells, m)) == per_digit_loop(code, cells, m), code
