"""Coalescing, restriction, the census engine, and the verification suite."""

import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from gsverify import (
    BordaLexRule,
    BudgetExceededError,
    ConstantRule,
    DictatorRule,
    MajorityLexRule,
    Preference,
    TopsTableRule,
    UnknownLemmaError,
    as_full_table,
    as_tops_table,
    census,
    classify_all,
    coalesce,
    dictatorial_profile_count,
    enumerate_tops_only_rules,
    extensionally_equal,
    find_efficiency_violation,
    find_tops_only_violation,
    is_efficient,
    is_unanimous,
    majority_counterexample,
    parse_rule,
    profile_from_code,
    restrict,
    rule_space_size,
    sample_efficient_tops_tables,
    verify_lemma,
)
from gsverify import _engine, _lemmas, constructions, rules
from gsverify._lemmas import _draw_codes, _l5_block
from gsverify.constructions import (
    _BLOCK_WORDS,
    _filter_mask,
    _iter_rule_blocks,
    _sampled_blocks,
    census_rows,
)
from gsverify.cli import run
from gsverify.prefs import DEFAULT_MAX_AGENTS, DEFAULT_MAX_ALTERNATIVES
from test_engine import DICTATORIAL, MANIPULABLE


def pref(text):
    return Preference.from_text(text)


def census_row_tuples(n, m, filters=()):
    """``census_rows`` as one tuple per rule: (rule code, unanimous, efficient,
    strategy-proof, dictatorial, |M_f|, |D_f|), decoded from its class key:
    one flag bit per filter, then k, the rule's non-dictatorial cells."""
    sp, width = _engine.space(n, m), len(constructions.FILTER_NAMES)
    rows = []
    for codes, keys in census_rows(n, m, filters):
        for code, key in zip(codes, keys, strict=True):
            m_count = (key >> width) * sp.cell_profile_count
            flags = (bool(key >> i & 1) for i in range(width))
            rows.append((code, *flags, m_count, sp.profile_count - m_count))
    return rows


def filtered_digits(n, m, filters):
    """The digits of every rule of the exhaustive stream passing the ordered
    ``filters``, in rule-code order."""
    return [
        block.digits(r)
        for block in _iter_rule_blocks(n, m, "exhaustive", None, None)
        for r in _engine.bit_indices(_filter_mask(filters, block, block.full))
    ]


def doctor_block_verdicts(monkeypatch, target, doctored):
    """Patch the block verdict kernel so that the rule with digits ``target``
    gets the verdict bits ``doctored[pc]`` (DICTATORIAL | MANIPULABLE) at the
    listed profile codes."""
    honest = _engine.block_profile_verdicts
    target = bytes(target)

    def doctored_verdicts(block):
        dictatorial, manipulable = honest(block)
        for r in range(block.count):
            if block.digits(r) != target:
                continue
            bit = 1 << r
            for pc, verdict in doctored.items():
                dictatorial[pc] &= ~bit
                manipulable[pc] &= ~bit
                if verdict & DICTATORIAL:
                    dictatorial[pc] |= bit
                if verdict & MANIPULABLE:
                    manipulable[pc] |= bit
        return dictatorial, manipulable

    monkeypatch.setattr(_engine, "block_profile_verdicts", doctored_verdicts)


def record_counts(records):
    """Per-rule |M_f| and |D_f| of C2's plane records, in rule order."""
    m_counts, d_counts = [], []
    for count, m_planes, d_planes in records:
        m_counts += _engine.plane_counts(m_planes, count)
        d_counts += _engine.plane_counts(d_planes, count)
    return m_counts, d_counts


def count_planes(counts):
    """The carry planes of per-rule counts, built bit by bit: bit r of plane
    j is bit j of ``counts[r]``."""
    return [
        int("".join(str(c >> j & 1) for c in reversed(counts)), 2)
        for j in range(max(counts).bit_length())
    ]


def doctor_every_block_verdict(monkeypatch, doctored):
    """Patch the block verdict kernel so that every rule gets the verdict
    bits ``doctored[pc]`` at the listed profile codes."""
    honest = _engine.block_profile_verdicts

    def doctored_verdicts(block):
        dictatorial, manipulable = honest(block)
        for pc, verdict in doctored.items():
            dictatorial[pc] = block.full if verdict & DICTATORIAL else 0
            manipulable[pc] = block.full if verdict & MANIPULABLE else 0
        return dictatorial, manipulable

    monkeypatch.setattr(_engine, "block_profile_verdicts", doctored_verdicts)


def doctor_block_manipulable(monkeypatch, target):
    """Patch the block manipulation kernel to clear the bit of the rule with
    digits ``target`` wherever it is asked about."""
    honest = _engine.block_manipulable
    target = bytes(target)

    def doctored(block, within):
        manipulable = honest(block, within)
        for r in _engine.bit_indices(within):
            if block.digits(r) == target:
                assert (manipulable >> r) & 1, "the doctored rule is manipulable"
                manipulable &= ~(1 << r)
        return manipulable

    monkeypatch.setattr(_engine, "block_manipulable", doctored)


def doctor_block_cell_masks(monkeypatch, target=None):
    """Patch the block cell kernel so that the rule with digits ``target``
    (every rule when None) is non-dictatorial at every tops cell, with the
    counts to match."""
    honest = _engine.block_cell_masks

    def doctored(block):
        nondictatorial, m_counts, d_counts = honest(block)
        for r in range(block.count):
            if target is None or block.digits(r) == bytes(target):
                nondictatorial = [bits | (1 << r) for bits in nondictatorial]
                m_counts[r], d_counts[r] = block.sp.profile_count, 0
        return nondictatorial, m_counts, d_counts

    monkeypatch.setattr(_engine, "block_cell_masks", doctored)


def constants_and_dictators(sp):
    return [(x,) * sp.tops_count for x in range(sp.m)] + list(sp.dictator_tables)


def count_block_predicates(monkeypatch):
    """Wrap the block predicates and ``block_manipulable`` to tally, per
    function, the rules it is asked about: the bits of ``within``."""
    asked = Counter()
    for name in (
        "block_unanimous", "block_efficient_cells", "block_efficient_definitional",
        "block_dictators", "block_manipulable",
    ):

        def counted(block, within, honest=getattr(_engine, name), name=name):
            asked[name] += within.bit_count()
            return honest(block, within)

        monkeypatch.setattr(_engine, name, counted)
    return asked


class TestCoalesce:
    def test_dictator_zero_stays(self):
        assert extensionally_equal(coalesce(DictatorRule(3, 3, 0)), DictatorRule(2, 3, 0))

    def test_dictator_one_maps_to_zero(self):
        assert extensionally_equal(coalesce(DictatorRule(3, 3, 1)), DictatorRule(2, 3, 0))

    def test_dictator_two_shifts_down(self):
        assert extensionally_equal(coalesce(DictatorRule(3, 3, 2)), DictatorRule(2, 3, 1))

    def test_needs_three_agents(self):
        with pytest.raises(ValueError):
            coalesce(DictatorRule(2, 3, 0))

    def test_preserves_full_dictatorial_set(self):
        for i in range(3):
            merged = coalesce(DictatorRule(3, 3, i))
            assert classify_all(merged).d_count == 36
        merged_constant = coalesce(ConstantRule(3, 3, 1))
        assert dictatorial_profile_count(merged_constant) == 36


class TestRestrict:
    def test_dictator_zero_stays(self):
        fixed = (pref("c,a,b"),)
        assert extensionally_equal(
            restrict(DictatorRule(3, 3, 0), fixed), DictatorRule(2, 3, 0)
        )

    def test_pinned_dictator_becomes_constant(self):
        fixed = (pref("c,a,b"),)
        assert extensionally_equal(
            restrict(DictatorRule(3, 3, 2), fixed), ConstantRule(2, 3, 2)
        )

    def test_wrong_fixed_count(self):
        with pytest.raises(ValueError):
            restrict(DictatorRule(3, 3, 0), ())

    def test_wrong_alternative_count(self):
        with pytest.raises(ValueError):
            restrict(DictatorRule(3, 3, 0), (Preference((0, 1)),))

    def test_preserves_full_dictatorial_set(self):
        fixed = (pref("b,c,a"),)
        for i in range(3):
            pinned = restrict(DictatorRule(3, 3, i), fixed)
            assert dictatorial_profile_count(pinned) == 36


class TestPreservation:
    def test_both_constructions_preserve_tops_onlyness(self):
        for rule in sample_efficient_tops_tables(3, 3, 100, seed=53):
            assert find_tops_only_violation(coalesce(rule)) is None
            assert find_tops_only_violation(restrict(rule, (pref("a,c,b"),))) is None

    def test_coalescing_preserves_efficiency(self):
        for rule in sample_efficient_tops_tables(3, 3, 100, seed=53):
            assert find_efficiency_violation(coalesce(rule)) is None

    def test_restriction_does_not_preserve_efficiency(self):
        # pinning the dictator's seat yields a constant, hence inefficient, rule
        pinned = restrict(DictatorRule(3, 3, 2), (pref("c,a,b"),))
        assert find_efficiency_violation(pinned) is not None


class TestEnumeration:
    def test_unfiltered_count(self):
        rules = list(enumerate_tops_only_rules(2, 3))
        assert len(rules) == 19683

    def test_ascending_rule_codes(self):
        codes = [
            int("".join(map(str, r.outcomes)), 3)
            for r in enumerate_tops_only_rules(2, 3, ("unanimous", "efficient"))
        ]
        assert codes == sorted(codes)

    def test_unanimous_count(self):
        assert sum(1 for _ in enumerate_tops_only_rules(2, 3, ("unanimous",))) == 729

    def test_te_count(self):
        rules = list(enumerate_tops_only_rules(2, 3, ("unanimous", "efficient")))
        assert len(rules) == 64
        assert all(is_unanimous(r) and is_efficient(r) for r in rules[:8])

    def test_strategy_proof_filter_leaves_only_dictators(self):
        rules = list(
            enumerate_tops_only_rules(
                2, 3, ("unanimous", "efficient", "strategy-proof")
            )
        )
        assert [r.outcomes for r in rules] == [
            (0, 0, 0, 1, 1, 1, 2, 2, 2),
            (0, 1, 2, 0, 1, 2, 0, 1, 2),
        ]

    def test_filter_stages_call_their_own_predicates(self, monkeypatch):
        # Every cell-efficient (2,3) table is unanimous, so a stage bound to
        # the wrong predicate would keep the same 64 rules; only the rules
        # each block predicate is asked about show that the unanimous stage
        # sees the whole stream and the efficient stage its 729 unanimous
        # survivors.
        tables = [
            bytes(r.outcomes) for r in enumerate_tops_only_rules(2, 3, ("unanimous", "efficient"))
        ]
        asked = count_block_predicates(monkeypatch)
        assert filtered_digits(2, 3, ("unanimous", "efficient")) == tables
        assert asked == {"block_unanimous": 19683, "block_efficient_cells": 729}

    def test_dictatorial_filter(self):
        assert sum(1 for _ in enumerate_tops_only_rules(2, 3, ("dictatorial",))) == 2

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            list(enumerate_tops_only_rules(2, 3, ("onto",)))

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("GSVERIFY_MAX_RULE_SPACE", "10")
        with pytest.raises(BudgetExceededError):
            list(enumerate_tops_only_rules(2, 2))

    def test_budget_guard_reports_required_work(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            list(enumerate_tops_only_rules(2, 4, mode="exhaustive"))
        assert str(rule_space_size(2, 4)) in str(excinfo.value)

    def test_sampled_defaults_to_seed_zero(self):
        rules = list(enumerate_tops_only_rules(3, 3, mode="sampled", samples=5))
        assert rules == list(
            enumerate_tops_only_rules(3, 3, mode="sampled", samples=5, seed=0)
        )
        assert len(rules) == 5

    def test_sampled_is_deterministic(self):
        draw = lambda: [
            r.outcomes
            for r in enumerate_tops_only_rules(3, 3, mode="sampled", samples=25, seed=3)
        ]
        assert draw() == draw()


def per_digit_loop(code, cells, m):
    """The base-m digits of a rule code, one divmod per digit."""
    digits = [0] * cells
    for i in range(cells - 1, -1, -1):
        code, digits[i] = divmod(code, m)
    return digits


def randrange_tables(n, m, count, seed):
    """The definition of the sampled rule stream: randrange(m) per cell."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(m) for _ in range(m**n)) for _ in range(count)]


STREAM_DIMS = [
    (n, m)
    for n in range(2, DEFAULT_MAX_AGENTS + 1)
    for m in range(2, DEFAULT_MAX_ALTERNATIVES + 1)
    if m**n <= 1296
]


class TestSampledStream:
    @pytest.mark.parametrize("n,m", STREAM_DIMS)
    def test_equals_randrange_per_cell(self, n, m):
        # every rule takes at least one generator word per cell
        several_blocks = 3 * _BLOCK_WORDS // m**n + 2
        for seed in (0, 1, 7, -5, 2**40 + 3):
            for count in (0, 1, several_blocks):
                blocks = list(_iter_rule_blocks(n, m, "sampled", count, seed))
                assert all(type(block.joined) is bytes for block in blocks)
                assert [i for block in blocks for i in block.codes] == list(range(count))
                assert all(len(block.joined) == len(block.codes) * m**n for block in blocks)
                assert b"".join(block.joined for block in blocks) == b"".join(
                    map(bytes, randrange_tables(n, m, count, seed))
                ), (seed, count)

    def test_blocks_hold_at_most_block_rules(self, monkeypatch):
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        blocks = list(_iter_rule_blocks(3, 3, "sampled", 100, 5))
        assert [len(block.codes) for block in blocks] == [7] * 14 + [2]
        assert b"".join(block.joined for block in blocks) == b"".join(
            map(bytes, randrange_tables(3, 3, 100, 5))
        )

    @pytest.mark.parametrize("size", [1, 2, 16, 19683, 2**32, 2**32 + 1, 3**27])
    def test_c2_draws_equal_randrange(self, size):
        # sizes under, at and over one 32-bit generator word
        for seed in (0, 1, 7, -5, 2**40 + 3):
            rng = random.Random(seed)
            expected = [rng.randrange(size) for _ in range(500)]
            assert list(_draw_codes(random.Random(seed), size, 500)) == expected, seed

    def test_rejects_digits_wider_than_a_byte(self):
        with pytest.raises(ValueError, match="m < 256"):
            next(_sampled_blocks(256, 1, 1, 0))


class TestExhaustiveStream:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
    def test_yields_each_code_and_its_digits(self, monkeypatch, n, m):
        cells = m**n
        codes = list(range(rule_space_size(n, m)))
        for block_rules in (7, 2048):
            monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
            # kept as a list: no yield may be changed by a later one
            blocks = list(_iter_rule_blocks(n, m, "exhaustive", None, None))
            assert [code for block in blocks for code in block.codes] == codes
            assert all(
                0 < len(block.codes) <= block_rules
                and len(block.joined) == len(block.codes) * cells
                for block in blocks
            )
            assert b"".join(block.joined for block in blocks) == b"".join(
                bytes(per_digit_loop(code, cells, m)) for code in codes
            )

    @pytest.mark.parametrize("block_rules", [7, 100, 2048])
    @pytest.mark.parametrize("n,m,stream", [
        (2, 2, "tables"), (3, 2, "tables"), (4, 2, "tables"), (2, 3, "tables"),
        (2, 2, "class"), (3, 2, "class"), (4, 2, "class"), (2, 3, "class"), (2, 4, "class"),
    ])
    def test_blocks_fill_to_block_rules_in_product_order(
        self, monkeypatch, n, m, stream, block_rules
    ):
        # both exhaustive streams: the tops tables and the tops-only efficient class
        monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
        sp = _engine.space(n, m)
        if stream == "tables":
            sets = (range(m),) * sp.tops_count
            blocks = list(_iter_rule_blocks(n, m, "exhaustive", None, None))
        else:
            sets = sp.cell_tops_sets
            blocks = list(_lemmas._blocks("class", n, m, "exhaustive", None, None, {}))
        expected = list(map(bytes, product(*sets)))
        assert [b.digits(r) for b in blocks for r in range(b.count)] == expected
        assert [code for b in blocks for code in b.codes] == list(range(len(expected)))
        whole, rest = divmod(len(expected), block_rules)
        assert [b.count for b in blocks] == [block_rules] * whole + [rest] * (rest > 0)
        assert all(len(b.joined) == b.count * sp.tops_count for b in blocks)


class TestEfficientClassStream:
    """The exhaustive stream of L4 and R2: every tops table selecting one of
    the agents' tops at every tops cell, as a product of the cells' tops sets."""

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
    def test_equals_the_filtered_tops_table_stream(self, monkeypatch, n, m):
        expected = filtered_digits(n, m, ("unanimous", "efficient"))
        for block_rules in (7, constructions._BLOCK_RULES):
            monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
            blocks = _lemmas._blocks("class", n, m, "exhaustive", None, None, {})
            assert [b.digits(r) for b in blocks for r in range(b.count)] == expected
            assert [code for b in blocks for code in b.codes] == list(range(len(expected)))
            assert all(0 < b.count <= block_rules for b in blocks)

    def test_holds_the_product_of_the_tops_sets_at_2_4(self):
        # the 4**16 tops tables are never walked: only the class is
        sets = _engine.space(2, 4).cell_tops_sets
        tables = []
        for block in _lemmas._blocks("class", 2, 4, "exhaustive", None, None, {}):
            assert 0 < block.count <= constructions._BLOCK_RULES
            tables += (block.digits(r) for r in range(block.count))
        assert len(tables) == math.prod(map(len, sets)) == 4096
        assert tables == sorted(set(tables))  # distinct, ascending
        assert all(d in tops for t in tables for d, tops in zip(t, sets, strict=True))

    def test_table_blocks_read_their_tables_once(self, monkeypatch):
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        sp = _engine.space(2, 3)
        tables = [bytes(per_digit_loop(code, 9, 3)) for code in range(0, 19683, 1000)]
        blocks = list(_lemmas._table_blocks(sp, iter(tables)))
        assert [block.count for block in blocks] == [7, 7, 6]
        assert [code for block in blocks for code in block.codes] == list(range(20))
        assert b"".join(block.joined for block in blocks) == b"".join(tables)
        assert list(_lemmas._table_blocks(sp, [])) == []

    @pytest.mark.parametrize("n,m", [(3, 3), (2, 4)])
    def test_the_public_sampler_draws_the_sampled_class(self, monkeypatch, n, m):
        # one seeded draw of the class: per table, rng.choice of each cell's
        # tops set in tops-code order, in the public sampler and in L4 and R2
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        rng = random.Random(11)
        sets = _engine.space(n, m).cell_tops_sets
        expected = [bytes(rng.choice(tops) for tops in sets) for _ in range(30)]
        public = sample_efficient_tops_tables(n, m, 30, seed=11)
        assert [bytes(rule.outcomes) for rule in public] == expected
        blocks = _lemmas._blocks("class", n, m, "sampled", 30, 11, {})
        assert [b.digits(r) for b in blocks for r in range(b.count)] == expected


class TestCensus:
    def test_exhaustive_n2_m3(self):
        report = census(2, 3)
        assert report.mode == "exhaustive"
        assert (
            report.total,
            report.unanimous,
            report.efficient,
            report.strategy_proof,
            report.dictatorial,
        ) == (19683, 729, 64, 2, 2)
        assert report.sp_equals_dictators
        survivors = [parse_rule(s, 2, 3) for s in report.strategy_proof_rules]
        assert [r.outcomes for r in survivors] == [
            (0, 0, 0, 1, 1, 1, 2, 2, 2),
            (0, 1, 2, 0, 1, 2, 0, 1, 2),
        ]

    def test_exhaustive_n2_m2_control(self):
        report = census(2, 2)
        assert (
            report.total,
            report.unanimous,
            report.efficient,
            report.strategy_proof,
            report.dictatorial,
        ) == (16, 4, 4, 4, 2)
        assert not report.sp_equals_dictators

    def test_cascade_is_monotone(self):
        report = census(3, 2)
        assert (
            report.dictatorial
            <= report.strategy_proof
            <= report.efficient
            <= report.unanimous
            <= report.total
        )

    def test_prefilter_restricts_total(self):
        report = census(2, 3, filters=("unanimous",))
        assert report.total == 729
        assert report.unanimous == 729
        assert report.efficient == 64
        assert report.filters == ("unanimous",)

    @pytest.mark.parametrize("filters,asked", [
        # cut to its unanimous rules from their digits: no block_unanimous
        ((), {"block_efficient_cells": 729, "block_manipulable": 64,
              "block_dictators": 2}),
        (("unanimous", "efficient"), {"block_unanimous": 19683,
                                      "block_efficient_cells": 729,
                                      "block_manipulable": 64, "block_dictators": 2}),
        (("strategy-proof",), {"block_manipulable": 19683, "block_unanimous": 5,
                               "block_efficient_cells": 2, "block_dictators": 2}),
    ])
    def test_each_stage_tested_once_per_rule(self, monkeypatch, filters, asked):
        # a stage that is also a prefilter reuses the prefilter's bitset, so
        # no rule is tested twice by one predicate
        counted = count_block_predicates(monkeypatch)
        report = census(2, 3, filters=filters)
        assert report.sp_equals_dictators
        assert (report.strategy_proof, report.dictatorial) == (2, 2)
        assert counted == asked

    def test_census_rows_decide_strategy_proofness_definitionally(self, monkeypatch):
        # with every |M_f| doctored to 0 the tops-cell criterion would call
        # every rule strategy-proof; the column still lists exactly the 5
        # strategy-proof (2,3) rules: the 2 dictators and the 3 constants
        honest = _engine._nondictatorial_cells

        def no_manipulable_cells(block):
            return [0] * len(honest(block))

        monkeypatch.setattr(_engine, "_nondictatorial_cells", no_manipulable_cells)
        rows = census_row_tuples(2, 3)
        assert len(rows) == 19683
        assert {m_count for *_, m_count, _ in rows} == {0}
        strategy_proof = [code for code, _, _, sp_flag, *_ in rows if sp_flag]
        sp = _engine.space(2, 3)
        assert strategy_proof == sorted(
            int("".join(map(str, t)), 3) for t in constants_and_dictators(sp)
        )

    def test_sampled_deterministic_and_consistent_with_theorem(self):
        first = census(3, 3, mode="sampled", samples=3000, seed=61)
        second = census(3, 3, mode="sampled", samples=3000, seed=61)
        assert first.to_json_dict() == second.to_json_dict()
        assert first.mode == "sampled"
        assert first.sp_equals_dictators

    def test_sampled_needs_seed(self):
        with pytest.raises(ValueError):
            census(3, 3, mode="sampled", samples=10, seed=None)

    def test_sampling_fallback_defaults_to_seed_zero(self):
        report = census(3, 3, samples=500)
        assert report.mode == "sampled"
        assert report.seed == 0
        assert report.to_json_dict() == census(3, 3, samples=500, seed=0).to_json_dict()

    def test_exhaustive_report_has_no_seed(self):
        assert census(2, 2).to_json_dict()["seed"] is None

    def test_exhaustive_over_budget(self):
        with pytest.raises(BudgetExceededError):
            census(2, 4, mode="exhaustive")

    def test_profile_work_over_budget(self):
        with pytest.raises(BudgetExceededError, match="needs 31850496 steps"):
            census(4, 4, mode="sampled", samples=10, seed=1)
        with pytest.raises(BudgetExceededError, match="needs 3456000 steps"):
            verify_lemma("L1", 2, 5, mode="sampled", samples=10, seed=1)
        with pytest.raises(BudgetExceededError, match="needs 31850496 steps"):
            _engine.profile_dominated(4, 4)
        # the verdict kernel decides each cell once, but still hands its
        # verdicts to every profile
        sp = _engine.space(4, 4)
        with pytest.raises(BudgetExceededError, match="needs 31850496 steps"):
            _engine.block_profile_verdicts(_engine.Block(sp, bytes(sp.tops_count), (0,)))
        # C2 reads per-profile verdicts, so it walks the profile space too
        with pytest.raises(BudgetExceededError, match="needs 3456000 steps"):
            verify_lemma("C2", 2, 5, mode="sampled", samples=10, seed=1)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_non_positive_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            census(3, 3, mode="sampled", samples=samples, seed=1)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_lemma("L1", 3, 3, mode="sampled", samples=samples, seed=1)

    def test_samples_past_the_rule_budget_rejected(self, monkeypatch):
        # a sampled scan draws its samples as rules, so they are held to the
        # rule-space budget before any is drawn
        with pytest.raises(BudgetExceededError) as raised:
            census(2, 3, mode="sampled", samples=100_000_000_000, seed=1)
        assert "draws 100000000000 rules, over the budget of 200000" in str(raised.value)
        assert "GSVERIFY_MAX_RULE_SPACE" in str(raised.value)
        monkeypatch.setenv("GSVERIFY_MAX_RULE_SPACE", "40")
        assert census(3, 3, samples=40, seed=1).total == 40
        with pytest.raises(BudgetExceededError, match="draws 41 rules, over the budget of 40"):
            census(3, 3, samples=41, seed=1)
        with pytest.raises(BudgetExceededError, match="draws 100000 rules"):
            census(3, 3)  # the default sample count
        with pytest.raises(BudgetExceededError, match="draws 41 rules"):
            list(enumerate_tops_only_rules(3, 3, mode="sampled", samples=41))

    @pytest.mark.parametrize("setting", [
        "GSVERIFY_MAX_RULE_SPACE", "GSVERIFY_MAX_ALTS", "GSVERIFY_MAX_AGENTS",
        "GSVERIFY_MAX_PROFILE_WORK",
    ])
    @pytest.mark.parametrize("value", ["abc", "2.5", "-1", "", "\u0666", "2_0", " 6 ", "+6"])
    def test_setting_not_a_whole_number_rejected(self, monkeypatch, setting, value):
        monkeypatch.setenv(setting, value)
        message = f"{setting} must be a whole number, got {value!r}"
        with pytest.raises(ValueError) as raised:
            census(2, 2)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            verify_lemma("L1", 2, 2)
        assert str(raised.value) == message

    def test_exhaustive_mode_rejects_samples(self):
        # auto mode still drops them where the space fits: one suite mixes
        # exhaustive and sampled checks
        with pytest.raises(ValueError, match="exhaustive mode takes no samples"):
            census(2, 3, mode="exhaustive", samples=5)
        with pytest.raises(ValueError, match="exhaustive mode takes no samples"):
            verify_lemma("L1", 2, 3, mode="exhaustive", samples=5)
        with pytest.raises(ValueError, match="exhaustive mode takes no samples"):
            enumerate_tops_only_rules(2, 2, samples=5)
        report = census(2, 3, samples=5)
        assert (report.mode, report.samples) == ("exhaustive", None)

    def test_one_sample_is_honoured(self):
        report = census(3, 3, mode="sampled", samples=1, seed=1)
        assert report.samples == 1
        assert report.total == 1

    def test_report_serialization_has_no_wall_time(self):
        payload = census(2, 2).to_json_dict()
        assert "elapsed" not in str(payload)
        assert payload["note"]


def full_column_census(n, m, samples, seed, filters=()):
    """The sampled census over the full columns of every block: (tallies,
    strategy-proof rules, dictator rules), each stage tested on every rule of
    the block that passed the stages before it."""
    ordered = constructions._ordered_filters(filters)
    tallies = [0] * len(constructions.CENSUS_STAGES)
    sp_rules, dict_rules = [], []
    for block in _iter_rule_blocks(n, m, "sampled", samples, seed):
        kept = block.full
        for name in ordered:
            kept = constructions._stage_mask(name, block, kept)
        cascade = [kept]
        for name in constructions.FILTER_NAMES:
            if name not in ordered:
                kept = constructions._stage_mask(name, block, kept)
            cascade.append(kept)
        tallies = [t + bits.bit_count() for t, bits in zip(tallies, cascade)]
        for r in range(block.count):
            if (cascade[3] >> r) & 1:
                rule = TopsTableRule(n, m, tuple(block.digits(r)))
                sp_rules.append(rule.to_string())
                if (cascade[4] >> r) & 1:
                    dict_rules.append(rule.to_string())
    return tallies, sp_rules, dict_rules


def spy_columns(monkeypatch):
    """The rule count of every block whose columns are computed, in order."""
    built = []
    honest = _engine._columns_of

    def spy(joined, sp):
        built.append(len(joined) // sp.tops_count)
        return honest(joined, sp)

    monkeypatch.setattr(_engine, "_columns_of", spy)
    return built


def spy_built(monkeypatch):
    """The digits of every block whose columns are computed, in order."""
    built = []
    honest = _engine._columns_of

    def spy(joined, sp):
        built.append(joined)
        return honest(joined, sp)

    monkeypatch.setattr(_engine, "_columns_of", spy)
    return built


def is_unanimous_digits(digits, sp):
    return all(digits[tc] == x for tc, x in sp.unanimous_cells)


# (n, m, samples per seed): (4,2) and (2,3) samples hold strategy-proof rules
CUT_SPACES = [(3, 3, 400), (2, 4, 300), (4, 2, 300), (2, 3, 3000)]
CUT_SEEDS = range(20)


class TestCutCascade:
    """A block read once with no prefilter but unanimity is cut to its
    unanimous rules before its columns are built; the census must equal the
    full-column reference."""

    @pytest.mark.parametrize("n,m,samples", CUT_SPACES)
    @pytest.mark.parametrize("filters", [
        (), ("unanimous",),  # cut first
        ("efficient",), ("unanimous", "efficient"), ("dictatorial",),
        ("strategy-proof",),  # the full path
    ])
    def test_equals_the_full_column_reference(self, monkeypatch, n, m, samples, filters):
        expected = [full_column_census(n, m, samples, seed, filters) for seed in CUT_SEEDS]
        # the survivors are compared too; at (4,2) only the four dictators are
        # too rare to be drawn
        if (n, m) == (2, 3) or (n, m) == (4, 2) and "dictatorial" not in filters:
            assert any(sp_rules for _, sp_rules, _ in expected)
        for block_rules in (7, 2048):
            monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
            for seed, (tallies, sp_rules, dict_rules) in zip(CUT_SEEDS, expected):
                report = census(
                    n, m, mode="sampled", samples=samples, seed=seed, filters=filters
                )
                assert list(report.counts().values()) == tallies, (block_rules, seed)
                assert list(report.strategy_proof_rules) == sp_rules
                assert list(report.dictator_rules) == dict_rules

    @pytest.mark.parametrize("n,m,samples", CUT_SPACES)
    @pytest.mark.parametrize("filters", [(), ("unanimous",)])
    def test_a_block_read_once_builds_columns_of_unanimous_rules_only(
        self, monkeypatch, n, m, samples, filters
    ):
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        sp = _engine.space(n, m)
        cells = sp.tops_count
        built = []
        honest_columns = _engine._columns_of

        def spy(joined, sp):
            built.append(joined)
            return honest_columns(joined, sp)

        monkeypatch.setattr(_engine, "_columns_of", spy)
        empty = []
        honest_unanimous = _engine.block_unanimous_digits

        def watched(block):
            unanimous = honest_unanimous(block)
            empty.append(not unanimous)
            return unanimous

        monkeypatch.setattr(_engine, "block_unanimous_digits", watched)
        report = census(n, m, mode="sampled", samples=samples, seed=5, filters=filters)
        # the cut blocks alone, each built once: no stage cuts them again
        rules = [joined[i : i + cells] for joined in built for i in range(0, len(joined), cells)]
        assert len(rules) == report.unanimous > 0
        assert all(is_unanimous_digits(digits, sp) for digits in rules)
        # every block was asked, and some held no unanimous rule
        assert len(empty) == -(-samples // 7) and any(empty) and not all(empty)
        assert report.total == (report.unanimous if filters else samples)

    def test_the_cut_block_builds_its_columns_once(self, monkeypatch):
        # at m = 2 every unanimous rule is efficient, so the strategy-proof
        # stage reads the columns of the block the efficient stage read
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        built = spy_columns(monkeypatch)
        report = census(4, 2, mode="sampled", samples=300, seed=5)
        assert report.unanimous == 75
        assert sum(built) == report.unanimous

    def test_a_census_cuts_every_stream_but_a_kept_list(self, monkeypatch):
        # a census walks the exhaustive stream once, so it cuts it too; THM
        # reads the blocks its run keeps whole, with the columns L1 built
        built = spy_columns(monkeypatch)
        report = census(2, 3, mode="exhaustive")
        assert report.total == 19683
        assert sum(built) == report.unanimous == 729
        built.clear()
        scope = {}
        verify_lemma("L1", 2, 3, scope=scope)
        assert sum(built) == 19683
        assert verify_lemma("THM", 2, 3, scope=scope).passed
        assert sum(built) == 19683


class TestVerifyLemma:
    def test_unknown_id(self):
        with pytest.raises(UnknownLemmaError):
            verify_lemma("L2", 2, 3)

    def test_unknown_id_names_every_runner(self):
        with pytest.raises(UnknownLemmaError) as raised:
            verify_lemma("l2", 2, 3)
        assert str(raised.value) == (
            "unknown check id 'L2'; known ids: C1, C2, L1, L3, L4, L5, R1, R2, THM"
        )
        assert _lemmas._LEMMA_IMPLS.keys() == constructions.LEMMA_DESCRIPTIONS.keys()

    @pytest.mark.parametrize(
        "lemma", ["L1", "L3", "L4", "L5", "C1", "C2", "R1", "R2", "THM"]
    )
    def test_all_pass_at_n2_m3(self, lemma):
        report = verify_lemma(lemma, 2, 3, seed=0)
        assert report.passed, report.counterexample
        assert report.counterexample is None

    @pytest.mark.parametrize("lemma", ["L1", "L3", "L5", "C1", "C2", "R1"])
    def test_all_pass_at_n2_m2(self, lemma):
        report = verify_lemma(lemma, 2, 2, seed=0)
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("lemma", ["L4", "R2"])
    def test_dictatorial_characterizations_need_three_alternatives(self, lemma):
        # at m=2 the majority-style rule has every profile dictatorial but no
        # dictator, so both characterizations fail along with the theorem
        report = verify_lemma(lemma, 2, 2)
        assert not report.passed
        rule = parse_rule(report.counterexample["rule"], 2, 2)
        assert extensionally_equal(rule, MajorityLexRule(2))
        assert dictatorial_profile_count(rule) == 4

    def test_theorem_fails_at_two_alternatives(self):
        report = verify_lemma("THM", 2, 2)
        assert not report.passed
        cx = report.counterexample
        assert cx["equals"] == "MAJLEX"
        rule = parse_rule(cx["rule"], 2, 2)
        cert = cx["certificate"]
        assert cert == {
            "unanimous": True,
            "tops_only": True,
            "efficient": True,
            "strategy_proof": True,
            "dictator": None,
        }
        assert extensionally_equal(rule, MajorityLexRule(2))

    def test_theorem_fails_at_two_alternatives_three_agents(self):
        report = verify_lemma("THM", 3, 2)
        assert not report.passed
        assert report.counterexample["equals"] == "MAJLEX"

    @pytest.mark.parametrize("lemma", ["L1", "L3", "L4", "L5", "C1", "R1", "R2"])
    def test_sampled_runs_pass_at_n3_m3(self, lemma):
        report = verify_lemma(lemma, 3, 3, mode="sampled", samples=120, seed=67)
        assert report.mode == "sampled"
        assert report.passed, report.counterexample

    def test_sampled_c2_pairs_at_n3_m3(self):
        report = verify_lemma("C2", 3, 3, mode="sampled", samples=400, seed=71)
        assert report.passed

    def test_l5_stops_at_its_first_failure(self, monkeypatch):
        # one doctored profile of rule code 1; no later block may clear it
        doctor_block_verdicts(
            monkeypatch, (0, 0, 0, 0, 0, 0, 0, 0, 1),
            {5: DICTATORIAL | MANIPULABLE},
        )
        report = verify_lemma("L5", 2, 3)
        assert report.counterexample["rule"] == "TOPS:n=2,m=3:000000001"
        assert report.detail["rules"] == 2
        assert report.checks == 36 + 6

    @pytest.mark.parametrize("doctored,kind,checks", [
        ({0: 3}, "profile not exactly one of dictatorial/manipulable", 1),
        ({1: 2}, "verdict not constant on a same-tops cell", 2),
    ])
    def test_l5_scan_reports_both_counterexample_kinds(
        self, monkeypatch, doctored, kind, checks
    ):
        # an honest rule first, so the doctored rule's checks follow its 36
        sp = _engine.space(2, 3)
        doctor_block_verdicts(monkeypatch, sp.dictator_tables[0], doctored)
        block = bytes(sp.dictator_tables[1]) + bytes(sp.dictator_tables[0])
        rules, seen, counterexample = _l5_block(_engine.Block(sp, block, range(2)))
        assert rules == 2
        assert seen == 36 + checks
        assert counterexample["kind"] == kind
        assert counterexample["profile"] == profile_from_code(checks - 1, 2, 3).to_text()
        assert counterexample["rule"] == "TOPS:n=2,m=3:000111222"

    @pytest.mark.parametrize("block_rules", [7, constructions._BLOCK_RULES])
    def test_l5_failure_in_the_last_worker_range(self, monkeypatch, block_rules):
        # the last rule code: its checks count every earlier rule exactly
        # once, across blocks
        monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
        doctor_block_verdicts(monkeypatch, (2,) * 9, {7: 0})
        report = verify_lemma("L5", 2, 3)
        assert report.counterexample["rule"] == "TOPS:n=2,m=3:222222222"
        assert report.counterexample["kind"] == (
            "profile not exactly one of dictatorial/manipulable"
        )
        assert report.counterexample["profile"] == profile_from_code(7, 2, 3).to_text()
        assert report.detail["rules"] == 19683
        assert report.checks == 19682 * 36 + 7 + 1

    @pytest.mark.parametrize("n,m,kwargs", [
        (2, 3, {}),  # exhaustive but for C2, which samples pairs
        (3, 3, {"mode": "sampled", "samples": 150, "seed": 3}),
    ])
    def test_block_boundaries_inside_the_stream(self, monkeypatch, n, m, kwargs):
        # blocks of 7 rules cut every stream mid-way; reports must not change
        ids = ["L1", "L4", "L5", "C1", "R1", "R2", "C2", "THM"]

        def outputs():
            return (
                [verify_lemma(i, n, m, **kwargs).to_json_dict() for i in ids],
                census_row_tuples(2, 3, filters=("unanimous",)),
                census_row_tuples(2, 3, filters=("strategy-proof",)),
                list(enumerate_tops_only_rules(2, 3, ("strategy-proof",))),
            )

        expected = outputs()
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        assert outputs() == expected

    @pytest.mark.parametrize("lemma", ["L4", "C2"])
    def test_block_rules_set_on_constructions_reach_the_runners(self, monkeypatch, lemma):
        # the sampled cell-efficient stream of L4 and the sampled pair codes
        # of C2 are cut into blocks of constructions._BLOCK_RULES rules
        sizes = []
        honest = _engine.block_profile_verdicts

        def spy(block):
            sizes.append(block.count)
            return honest(block)

        monkeypatch.setattr(_engine, "block_profile_verdicts", spy)
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        verify_lemma(lemma, 3, 3, mode="sampled", samples=50, seed=1)
        assert len(sizes) > 1 and max(sizes) == 7

    # Failing reports when the block manipulation kernel wrongly calls one
    # manipulable rule strategy-proof.  The expected reports are the ones the
    # per-rule scan gave when it was doctored the same way (before the block
    # kernel decided strategy-proofness), so the block path fails identically.
    L1_C1_DOCTORED = (0, 1, 1, 0, 1, 0, 0, 1, 2)  # unanimous, inefficient
    THM_DOCTORED = (0, 1, 2, 0, 1, 1, 0, 1, 2)  # unanimous, efficient

    @pytest.mark.parametrize("block_rules", [7, constructions._BLOCK_RULES])
    @pytest.mark.parametrize("lemma,kind,checks,detail", [
        ("L1", "strategy-proof unanimous rule that is not efficient", 326,
         {"unanimous_rules": 326, "closed_forms": 0}),
        ("C1", "strategy-proof unanimous rule outside tops-only efficient", 326,
         {"strategy_proof_unanimous": 2, "closed_forms": 0}),
    ])
    def test_doctored_strategy_proofness_fails_l1_and_c1(
        self, monkeypatch, lemma, kind, checks, detail, block_rules
    ):
        monkeypatch.setattr(constructions, "_BLOCK_RULES", block_rules)
        doctor_block_manipulable(monkeypatch, self.L1_C1_DOCTORED)
        report = verify_lemma(lemma, 2, 3)
        assert not report.passed
        assert report.checks == checks
        assert report.detail == detail
        assert report.counterexample == {
            "kind": kind, "rule": "TOPS:n=2,m=3:011010012"
        }

    def test_doctored_strategy_proofness_fails_thm(self, monkeypatch):
        doctor_block_manipulable(monkeypatch, self.THM_DOCTORED)
        report = verify_lemma("THM", 2, 3)
        assert not report.passed
        assert report.checks == 19683
        assert report.detail == {"counts": {
            "total": 19683, "unanimous": 729, "efficient": 64,
            "strategy_proof": 3, "dictatorial": 2,
        }}
        assert report.counterexample == {
            "kind": "strategy-proof unanimous efficient rule with no dictator",
            "rule": "TOPS:n=2,m=3:012011012",
            "equals": None,
            # the certificate re-checks with the object layer, not the kernel
            "certificate": {
                "unanimous": True, "tops_only": True, "efficient": True,
                "strategy_proof": False, "dictator": None,
            },
        }

    @pytest.mark.parametrize("lemma,kind,detail", [
        ("L1", "strategy-proof unanimous rule that is not efficient",
         {"unanimous_rules": 729, "closed_forms": 1}),
        ("C1", "strategy-proof unanimous rule outside tops-only efficient",
         {"strategy_proof_unanimous": 3, "closed_forms": 1}),
    ])
    def test_closed_form_counterexample(self, monkeypatch, lemma, kind, detail):
        # the tops-table scan passes; with the object-layer efficiency check
        # doctored, the first closed form (DICT:0) is the counterexample
        monkeypatch.setattr(rules, "is_efficient", lambda rule: False)
        report = verify_lemma(lemma, 2, 3)
        assert not report.passed
        assert report.checks == 730
        assert report.detail == detail
        assert report.counterexample == {"kind": kind, "rule": "DICT:0"}

    # R2 when the cell kernel is wrong, and R1 when the manipulable verdicts
    # are: for one dictatorship (which stays the strategy-proof minimum and
    # the dictatorial maximum elsewhere), and for every rule (the extremum
    # then misses the target, so the first rule fails)
    @pytest.mark.parametrize("target,checks,counterexample", [
        ((0, 0, 0, 1, 1, 1, 2, 2, 2), 12, {
            "kind": "maximality mismatch", "rule": "TOPS:n=2,m=3:000111222",
            "d_count": 0, "max_d_count": 36, "profiles": 36, "dictatorial": True}),
        (None, 1, {
            "kind": "maximality mismatch", "rule": "TOPS:n=2,m=3:000011012",
            "d_count": 0, "max_d_count": 0, "profiles": 36, "dictatorial": False}),
    ])
    def test_doctored_cell_counts_fail_r2(self, monkeypatch, target, checks, counterexample):
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        doctor_block_cell_masks(monkeypatch, target)
        report = verify_lemma("R2", 2, 3)
        assert not report.passed
        assert report.checks == checks
        assert report.counterexample == counterexample
        assert report.detail == {"pool": 64, "max_d_count": counterexample["max_d_count"]}

    @pytest.mark.parametrize("target,checks,counterexample", [
        ((0, 0, 0, 1, 1, 1, 2, 2, 2), 378, {
            "kind": "minimality mismatch", "rule": "TOPS:n=2,m=3:000111222",
            "m_count": 36, "min_m_count": 0, "strategy_proof": True}),
        (None, 1, {
            "kind": "minimality mismatch", "rule": "TOPS:n=2,m=3:000000000",
            "m_count": 36, "min_m_count": 36, "strategy_proof": True}),
    ])
    def test_doctored_manipulable_verdicts_fail_r1(
        self, monkeypatch, target, checks, counterexample
    ):
        # every profile manipulable under the verdict kernel, while
        # block_manipulable still calls the rule strategy-proof: the flag
        # mismatch comes from the verdicts, and doctored cells change nothing
        monkeypatch.setattr(constructions, "_BLOCK_RULES", 7)
        honest = verify_lemma("R1", 2, 3).to_json_dict()
        assert honest["passed"]
        doctor_block_cell_masks(monkeypatch, target)
        assert verify_lemma("R1", 2, 3).to_json_dict() == honest
        everywhere = dict.fromkeys(range(36), MANIPULABLE)
        if target is None:
            doctor_every_block_verdict(monkeypatch, everywhere)
        else:
            doctor_block_verdicts(monkeypatch, target, everywhere)
        report = verify_lemma("R1", 2, 3)
        assert not report.passed
        assert report.checks == checks
        assert report.counterexample == counterexample
        assert report.detail == {"rules": 19683, "min_m_count": counterexample["min_m_count"]}

    def test_doctored_verdicts_fail_c2(self, monkeypatch):
        # profile 0 of TOPS:n=2,m=2:1000 is manipulable; calling it
        # dictatorial as well breaks the duality of the two orders, which C2
        # must see because it counts |M_f| and |D_f| apart
        doctor_block_verdicts(
            monkeypatch, (1, 0, 0, 0), {0: DICTATORIAL | MANIPULABLE}
        )
        report = verify_lemma("C2", 2, 2, mode="exhaustive")
        assert not report.passed
        assert report.checks == 105
        assert report.counterexample == {
            "kind": "duality violation",
            "f": "TOPS:n=2,m=2:0110", "g": "TOPS:n=2,m=2:1000",
            "m_f": 3, "d_f": 1, "m_g": 3, "d_g": 2,
        }

    @staticmethod
    def c2_sources(monkeypatch, n, m, **kwargs):
        """Whether C2 counts the exhaustive stream, and its report four ways:
        from the source it takes, then with every count forced from the stream
        and from blocks of codes (every code in order where it takes the
        stream), and with its drawn pairs walked whatever its count classes."""
        honest = _lemmas._c2_planes
        size = rule_space_size(n, m)
        took = []

        def taken(n, m, codes, scope):
            took.append(codes is None)
            return honest(n, m, codes, scope)

        def stream(n, m, codes, scope):
            records = honest(n, m, None, scope)
            if codes is None:
                return records
            m_counts, d_counts = record_counts(records)
            picked = [m_counts[c] for c in codes], [d_counts[c] for c in codes]
            return [(len(codes), *map(count_planes, picked))]

        def drawn(n, m, codes, scope):
            return honest(n, m, range(size) if codes is None else codes, scope)

        reports = []
        for counts in (taken, stream, drawn):
            monkeypatch.setattr(_lemmas, "_c2_planes", counts)
            reports.append(verify_lemma("C2", n, m, **kwargs).to_json_dict())
        monkeypatch.setattr(_lemmas, "_c2_planes", honest)
        with monkeypatch.context() as walk:
            walk.setattr(_lemmas, "_dual", lambda classes: False)
            reports.append(verify_lemma("C2", n, m, **kwargs).to_json_dict())
        assert len(took) == 1
        return took[0], reports

    @pytest.mark.parametrize("n,m,kwargs,stream", [
        (2, 3, {"seed": 0}, True),  # 20000 draws, the space 19683 rules
        (2, 3, {"seed": 1}, True),
        (2, 3, {"seed": 2026}, True),
        (2, 3, {"samples": 9842, "seed": 0}, True),  # 19684 draws
        (2, 3, {"samples": 9841, "seed": 0}, False),  # 19682 draws
        (2, 3, {"samples": 5000, "seed": 1}, False),
        (4, 2, {"mode": "sampled", "seed": 0}, False),  # 20000 draws of 65536 rules
        (3, 2, {}, True),  # exhaustive
    ])
    def test_c2_count_sources_agree(self, monkeypatch, n, m, kwargs, stream):
        took_stream, (taken, from_stream, from_codes, walked) = self.c2_sources(
            monkeypatch, n, m, **kwargs
        )
        assert took_stream == stream
        assert taken["passed"]
        assert taken == from_stream == from_codes == walked

    def test_doctored_verdicts_fail_c2_through_both_count_sources(self, monkeypatch):
        # the first drawn pair (f, g) with |M_f| = |M_g| < 36; clearing f's
        # verdicts at one of its dictatorial profiles lowers |D_f| alone,
        # which breaks the duality at that pair or an earlier one with f first
        draws = list(_draw_codes(random.Random(0), 3**9, 10_000))
        table = lambda code: TopsTableRule(2, 3, tuple(_engine.digits_from_code(code, 9, 3)))
        m_count = lambda code: classify_all(table(code)).m_count
        f, g = next(
            (f, g) for f, g in zip(draws[0::2], draws[1::2]) if 36 > m_count(f) == m_count(g)
        )
        pc = _engine.low_bit(classify_all(table(f), materialize_sets=True).d_set)
        doctor_block_verdicts(monkeypatch, table(f).outcomes, {pc: 0})
        took_stream, (taken, from_stream, from_codes, walked) = self.c2_sources(
            monkeypatch, 2, 3, samples=5000, seed=0
        )
        assert not took_stream
        assert not taken["passed"]
        assert taken["counterexample"]["kind"] == "duality violation"
        assert taken["counterexample"]["f"] == table(f).to_string()
        assert taken["counterexample"]["d_f"] == 36 - m_count(f) - 1
        assert taken["detail"]["distinct_rules"] == len(set(draws[: 2 * taken["checks"]]))
        assert taken == from_stream == from_codes == walked

    def test_c2_walks_its_pairs_when_an_undrawn_class_breaks_duality(self, monkeypatch):
        # 16 draws of the 16 (2,2) rules, so C2 counts the whole stream; the
        # doctored rule's class (3, 2) breaks the duality against (3, 1), so
        # C2 walks its pairs, and as no draw is that rule, every pair passes
        doctored = TopsTableRule(2, 2, (1, 0, 0, 0))
        code = int("1000", 2)
        seed = next(s for s in range(100) if code not in list(_draw_codes(random.Random(s), 16, 16)))
        doctor_block_verdicts(monkeypatch, doctored.outcomes, {0: DICTATORIAL | MANIPULABLE})
        honest_dual, decided = _lemmas._dual, []

        def dual(classes):
            decided.append(honest_dual(classes))
            return decided[-1]

        monkeypatch.setattr(_lemmas, "_dual", dual)
        took_stream, reports = self.c2_sources(
            monkeypatch, 2, 2, mode="sampled", samples=8, seed=seed
        )
        assert took_stream
        assert decided == [False] * 3
        assert reports[0]["passed"] and reports[0]["checks"] == 8
        assert all(report == reports[0] for report in reports)

    def test_doctored_verdicts_raising_m_alone_fail_c2(self, monkeypatch):
        # (2,3) verdicts are constant on cells of four profiles, so no honest
        # rule has |M_f| + 1 manipulable profiles: calling one dictatorial
        # profile of f manipulable as well ties f's class with honest ones in
        # |D_f| alone, which C2 must see at the first drawn pair (f, g) with
        # |M_f| = |M_g| < 36
        draws = list(_draw_codes(random.Random(0), 3**9, 20_000))
        table = lambda code: TopsTableRule(2, 3, tuple(_engine.digits_from_code(code, 9, 3)))
        m_count = lambda code: classify_all(table(code)).m_count
        index, (f, g) = next(
            (i, (f, g)) for i, (f, g) in enumerate(zip(draws[0::2], draws[1::2]))
            if 36 > m_count(f) == m_count(g)
        )
        pc = _engine.low_bit(classify_all(table(f), materialize_sets=True).d_set)
        doctor_block_verdicts(monkeypatch, table(f).outcomes, {pc: DICTATORIAL | MANIPULABLE})
        took_stream, reports = self.c2_sources(monkeypatch, 2, 3)
        assert took_stream
        assert reports[0]["checks"] == index + 1
        assert reports[0]["counterexample"] == {
            "kind": "duality violation", "f": table(f).to_string(), "g": table(g).to_string(),
            "m_f": m_count(f) + 1, "d_f": 36 - m_count(f),
            "m_g": m_count(g), "d_g": 36 - m_count(g),
        }
        assert reports[0]["detail"]["distinct_rules"] == len(set(draws[: 2 * (index + 1)]))
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("classes,dual", [
        ({(0, 4), (1, 3), (4, 0)}, True),
        ({(5, 7)}, True),
        ({(3, 1), (3, 2)}, False),  # |M_f| tied
        ({(0, 4), (1, 4), (4, 0)}, False),  # |D_f| tied
        ({(0, 4), (1, 3), (4, 5)}, False),  # |D_f| rises
    ])
    def test_c2_classes_decide_only_a_strict_order(self, classes, dual):
        assert _lemmas._dual(classes) is dual

    def test_sampling_fallback_defaults_to_seed_zero(self):
        report = verify_lemma("C2", 2, 3)
        assert report.mode == "sampled"
        assert report.seed == 0
        assert report.to_json_dict() == verify_lemma("C2", 2, 3, seed=0).to_json_dict()

    def test_auto_mode_falls_back_to_sampling(self):
        report = verify_lemma("L5", 3, 3, samples=50, seed=73)
        assert report.mode == "sampled"
        assert report.samples == 50

    def test_theorem_holds_on_sampled_rules_at_n3_m3(self):
        report = verify_lemma("THM", 3, 3, samples=2000, seed=79)
        assert report.mode == "sampled"
        assert report.passed


def spy_verdict_blocks(monkeypatch):
    """The rule count of every block ``block_profile_verdicts`` is asked
    about, in order, kept in the returned list."""
    honest, sizes = _engine.block_profile_verdicts, []

    def spy(block):
        sizes.append(block.count)
        return honest(block)

    monkeypatch.setattr(_engine, "block_profile_verdicts", spy)
    return sizes


class TestRunScope:
    """The checks of one ``lemmas`` run share a scope: the kept streams,
    whose blocks decide their verdicts once for L5, C2 and R1, and one
    stream pass for L1 and C1.  Every entry must equal the check's report
    from a call of its own."""

    STREAM_2X3 = [2048] * 9 + [1251]  # the (2,3) tops-table stream's blocks

    @staticmethod
    def suite(capsys, n, m, *argv):
        assert run(["lemmas", "--suite", "all", "--agents", str(n), "--alts", str(m), *argv]) in (0, 1)
        return {r["lemma"]: r for r in json.loads(capsys.readouterr().out)["results"]}

    @pytest.mark.parametrize("n,m,kwargs", [
        (2, 2, {}),
        (3, 2, {}),
        (4, 2, {}),
        (2, 3, {}),
        (3, 3, {"samples": 60, "seed": 4}),
        (2, 4, {"samples": 60, "seed": 5}),
    ])
    def test_each_entry_equals_its_own_call(self, capsys, n, m, kwargs):
        argv = [f"--{key}={value}" for key, value in kwargs.items()]
        entries = self.suite(capsys, n, m, *argv)
        assert list(entries) == list(constructions.LEMMA_DESCRIPTIONS)
        for lemma, entry in entries.items():
            assert entry == verify_lemma(lemma, n, m, **kwargs).to_json_dict(), lemma

    def test_the_2x3_suite_computes_each_blocks_verdicts_once(self, capsys, monkeypatch):
        # L4 over the class block and L5 over the 10 stream blocks; C2 and R1
        # read the verdicts those kept blocks decided, and C1 reads L1's
        # stream pass
        sizes = spy_verdict_blocks(monkeypatch)
        honest, streams = _lemmas._strategy_proof_unanimous_stream, []
        monkeypatch.setattr(
            _lemmas, "_strategy_proof_unanimous_stream",
            lambda *args: streams.append(args) or honest(*args),
        )
        entries = self.suite(capsys, 2, 3)
        assert all(entry["passed"] for entry in entries.values())
        assert sizes == [64] + self.STREAM_2X3
        assert len(streams) == 1

    def test_doctored_verdicts_reach_c2_and_r1_through_l5(self, capsys, monkeypatch):
        # DICT:0 called manipulable, not dictatorial, over one whole tops
        # cell: L5 still passes, C2 and R1 read the verdicts its blocks
        # decided, and R1 fails
        sp = _engine.space(2, 3)
        cell = [pc for pc, tc in enumerate(_engine.profile_tops_codes(2, 3)) if tc == 1]
        doctor_block_verdicts(monkeypatch, sp.dictator_tables[0], dict.fromkeys(cell, MANIPULABLE))
        sizes = spy_verdict_blocks(monkeypatch)
        entries = self.suite(capsys, 2, 3)
        assert sizes == [64] + self.STREAM_2X3
        assert entries["L5"]["passed"]
        assert entries["R1"]["counterexample"]["rule"] == "TOPS:n=2,m=3:000111222"
        for lemma in ("C2", "R1"):
            assert entries[lemma] == verify_lemma(lemma, 2, 3).to_json_dict()

    def test_each_block_decides_its_verdicts_once_after_l5_fails(self, capsys, monkeypatch):
        doctor_block_verdicts(monkeypatch, (0,) * 8 + (1,), {5: DICTATORIAL | MANIPULABLE})
        sizes = spy_verdict_blocks(monkeypatch)
        entries = self.suite(capsys, 2, 3)
        assert entries["L5"]["counterexample"]["rule"] == "TOPS:n=2,m=3:000000001"
        # L4's class block; L5 stops in the first stream block, and C2
        # decides the other nine; R1 reads them all
        assert sizes == [64] + self.STREAM_2X3
        for lemma in ("C2", "R1"):
            assert entries[lemma] == verify_lemma(lemma, 2, 3).to_json_dict()

    @pytest.mark.parametrize("n,m,samples,seed", [(3, 3, 60, 4), (2, 4, 60, 5)])
    def test_a_sampled_r1_scans_only_its_anchors(self, capsys, monkeypatch, n, m, samples, seed):
        # L4's sampled class and L5's sampled stream, one block each, and
        # C2's drawn codes; R1 reads the verdicts of the stream L5 kept and
        # decides those of the n dictatorships that anchor its sample, nothing
        # more
        sizes = spy_verdict_blocks(monkeypatch)
        entries = self.suite(capsys, n, m, f"--samples={samples}", f"--seed={seed}")
        assert entries["L5"]["passed"] and entries["R1"]["passed"]
        assert sizes[:2] == [samples, samples]
        assert sizes[3:] == [n]

    def test_c2_after_l5_keeps_no_draws(self):
        # C2 at (2,3) counts the verdicts of the blocks L5 kept and marks its
        # 20000 drawn codes in a bytearray of the 19683 rules; a list of the
        # draws and their set would peak at about 1.5 MB
        scope = {}
        assert verify_lemma("L5", 2, 3, scope=scope).passed
        tracemalloc.start()
        try:
            report = verify_lemma("C2", 2, 3, scope=scope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.detail == {"distinct_rules": 12591}
        assert peak < 64 * 1024

    def test_a_scope_keeps_other_streams_apart(self):
        # L1 and C1 share a stream pass only over the same stream
        scope = {}
        verify_lemma("L1", 3, 3, mode="sampled", samples=40, seed=1, scope=scope)
        for kwargs in ({"samples": 40, "seed": 2}, {"samples": 30, "seed": 1}):
            shared = verify_lemma("C1", 3, 3, mode="sampled", scope=scope, **kwargs)
            alone = verify_lemma("C1", 3, 3, mode="sampled", **kwargs)
            assert shared.to_json_dict() == alone.to_json_dict()
        verify_lemma("L1", 2, 2, scope=scope)
        shared = verify_lemma("C1", 2, 3, scope=scope)
        assert shared.to_json_dict() == verify_lemma("C1", 2, 3).to_json_dict()
        # and R1 and R2 read the kept blocks of L5 and L4 only on the same
        # stream
        for first, then in (("L5", "R1"), ("L4", "R2")):
            verify_lemma(first, 3, 3, mode="sampled", samples=40, seed=1, scope=scope)
            for kwargs in ({"samples": 40, "seed": 2}, {"samples": 30, "seed": 1}):
                shared = verify_lemma(then, 3, 3, mode="sampled", scope=scope, **kwargs)
                alone = verify_lemma(then, 3, 3, mode="sampled", **kwargs)
                assert shared.to_json_dict() == alone.to_json_dict()

    def test_a_call_after_a_patch_sees_it(self, monkeypatch):
        scope = {}
        for lemma in ("L1", "L5", "C1", "C2", "R1"):
            assert verify_lemma(lemma, 2, 3, scope=scope).passed
        sp = _engine.space(2, 3)
        doctor_block_verdicts(monkeypatch, sp.dictator_tables[0], dict.fromkeys(range(36), MANIPULABLE))
        assert not verify_lemma("R1", 2, 3).passed
        assert not verify_lemma("R1", 2, 3, scope={}).passed
        doctor_block_verdicts(monkeypatch, (1, 0, 0, 0), {0: DICTATORIAL | MANIPULABLE})
        assert not verify_lemma("C2", 2, 2, mode="exhaustive").passed


class TestMajorityCounterexample:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_certificate_valid(self, n):
        cert = majority_counterexample(n)
        assert cert.valid
        assert cert.dictator is None
        assert cert.rule == MajorityLexRule(n)

    def test_json_shape(self):
        payload = majority_counterexample(3).to_json_dict()
        assert payload["rule"] == "MAJLEX"
        assert payload["valid"] is True


class TestDerivedRuleStrings:
    @pytest.mark.parametrize("base", [DictatorRule(3, 3, 2), BordaLexRule(3, 3)])
    def test_strings_are_the_materialized_tables(self, base):
        fixed = [pref("b,c,a")]
        for derived in (coalesce(base), restrict(base, fixed)):
            if base.tops_only_by_construction:
                expected = as_tops_table(derived).to_string()
                assert expected.startswith("TOPS:")
            else:
                expected = as_full_table(derived).to_string()
                assert expected.startswith("FULL:")
            assert derived.to_string() == expected

    def test_coalesced_rule_serializes_as_table(self):
        merged = coalesce(DictatorRule(3, 3, 1))
        assert parse_rule(merged.to_string(), 2, 3) == TopsTableRule(
            2, 3, (0, 0, 0, 1, 1, 1, 2, 2, 2)
        )


SUITE = ("L1", "L3", "L4", "L5", "C1", "C2", "R1", "R2", "THM")


def suite_reports(n, m, scope, **kwargs):
    """The suite's reports at (n, m) as JSON text, one per check, the checks
    sharing ``scope`` as the checks of one ``lemmas`` run do."""
    return [
        json.dumps(verify_lemma(lemma, n, m, scope=scope, **kwargs).to_json_dict(), sort_keys=True)
        for lemma in SUITE
    ]


def kept_streams(scope):
    """The (stream, n, m, mode, samples, seed) keys of the streams a run's
    scope keeps."""
    return sorted(key for key in scope if key[0] in ("tables", "class"))


class TestKeptStreams:
    """A ``lemmas`` run keeps each stream of at most ``_lemmas._KEPT_RULES``
    rules, exhaustive or sampled, in its scope as a list of blocks, whose
    columns are built in the first scan and read by every later check.
    Nothing else keeps columns: every call outside a run builds its own."""

    EXHAUSTIVE = ("exhaustive", None, None)

    @staticmethod
    def exhaustive(stream, n, m):
        return [b.joined for b in _lemmas._blocks(stream, n, m, "exhaustive", None, None, {})]

    @pytest.mark.parametrize("n,m,blocks", [(2, 2, 2), (3, 2, 2), (2, 3, 11)])
    def test_each_run_builds_each_blocks_columns_once(self, capsys, monkeypatch, n, m, blocks):
        # L1 builds the blocks of the tops-table stream (10 at (2,3)) and L4
        # the class's (1); the other checks, C2 counting the whole stream
        # among them, read them.  A second run in the same process keeps
        # nothing from the first, so it builds them again
        expected = self.exhaustive("tables", n, m) + self.exhaustive("class", n, m)
        assert len(expected) == blocks
        built = spy_built(monkeypatch)
        argv = ["lemmas", "--suite", "all", "--agents", str(n), "--alts", str(m)]
        outs = []
        for _ in range(2):
            built.clear()
            assert run(argv) == (m == 2)  # at m = 2 L4, R2 and THM fail
            outs.append(capsys.readouterr().out)
            assert built == expected
        assert outs[0] == outs[1]

    def test_the_4x2_suite_builds_each_blocks_columns_once(self, monkeypatch):
        # the largest exhaustive streams at the default budget: 65536 tops
        # tables in 32 blocks and 16384 class tables in 8, both kept; C2
        # samples its pairs, and builds the blocks of its drawn codes once
        stream, te = self.exhaustive("tables", 4, 2), self.exhaustive("class", 4, 2)
        assert (len(stream), len(te)) == (32, 8)
        built = spy_built(monkeypatch)
        scope = {}
        suite_reports(4, 2, scope)
        assert kept_streams(scope) == [
            ("class", 4, 2, *self.EXHAUSTIVE), ("tables", 4, 2, *self.EXHAUSTIVE)
        ]
        assert len(built) == len(set(built))
        assert set(stream + te) <= set(built)

    @pytest.mark.parametrize("call", [
        lambda: suite_reports(3, 3, {}, samples=60, seed=4),
        lambda: census(2, 3).to_json_dict(),
        lambda: census(3, 3, mode="sampled", samples=3000, seed=3).to_json_dict(),
        lambda: census_row_tuples(2, 3),
        lambda: [
            classify_all(parse_rule(text, 2, 3), method=method)
            for text in ("DICT:0", "TOPS:n=2,m=3:000011012") for method in ("cells", "scan")
        ],
    ], ids=["sampled-suite", "census", "sampled-census", "census-rows", "classify-all"])
    def test_a_call_outside_a_run_keeps_no_columns(self, monkeypatch, call):
        built = spy_built(monkeypatch)
        first = call()
        builds = list(built)
        built.clear()
        assert call() == first
        assert builds and built == builds

    @pytest.mark.parametrize("bound", [50, 49])
    @pytest.mark.parametrize("lemma", SUITE)
    def test_a_sampled_check_keeps_its_stream(self, monkeypatch, lemma, bound):
        # a sample of 50 is kept within the bound only; C2 draws rule codes,
        # never a stream; a fresh scope builds again
        stream = {"C2": [], "L4": ["class"], "R2": ["class"]}.get(lemma, ["tables"])
        monkeypatch.setattr(_lemmas, "_KEPT_RULES", bound)
        built = spy_built(monkeypatch)
        scope = {}
        first = verify_lemma(lemma, 3, 3, mode="sampled", samples=50, seed=1, scope=scope)
        kept = [(s, 3, 3, "sampled", 50, 1) for s in stream if bound >= 50]
        assert kept_streams(scope) == kept
        builds = list(built)
        built.clear()
        again = verify_lemma(lemma, 3, 3, mode="sampled", samples=50, seed=1, scope={})
        assert again.to_json_dict() == first.to_json_dict()
        assert builds and built == builds

    SAMPLED_3X3 = ["lemmas", "--suite", "all", "--agents", "3", "--alts", "3",
                   "--samples", "60", "--seed", "4"]

    def test_a_sampled_suite_builds_its_streams_columns_once(self, capsys, monkeypatch):
        # L1 builds the tables sample's one block and L4 the class sample's;
        # then C2's drawn codes and the dictatorships anchoring R1 and R2,
        # once each.  L3, L5, R1 and THM read the kept tables
        tables = [b.joined for b in _iter_rule_blocks(3, 3, "sampled", 60, 4)]
        te = [b.joined for b in _lemmas._blocks("class", 3, 3, "sampled", 60, 4, {})]
        built = spy_built(monkeypatch)
        assert run(self.SAMPLED_3X3) == 0
        capsys.readouterr()
        assert built[:2] == tables + te
        assert len(built) == 5

    def test_a_sampled_suite_draws_the_class_once(self, capsys, monkeypatch):
        # R2 reads the class sample L4 kept; a generator that is made but
        # never read draws nothing, so the tables read are counted
        drawn = []
        honest = constructions._efficient_tables

        def counted(*args):
            for table in honest(*args):
                drawn.append(table)
                yield table

        monkeypatch.setattr(constructions, "_efficient_tables", counted)
        assert run(self.SAMPLED_3X3) == 0
        capsys.readouterr()
        assert len(drawn) == 60

    @pytest.mark.parametrize("n,m,bound,kept", [
        # the (2,3) class holds 64 rules, the (4,2) class 16384
        (2, 3, 63, []), (2, 3, 64, ["class"]), (4, 2, 63, []), (4, 2, 16384, ["class"]),
    ])
    def test_a_stream_over_the_bound_is_not_kept(self, monkeypatch, n, m, bound, kept):
        # past the bound a stream is built afresh for every scan, with the
        # same reports
        expected = suite_reports(n, m, {})
        monkeypatch.setattr(_lemmas, "_KEPT_RULES", bound)
        built = spy_built(monkeypatch)
        scope = {}
        assert suite_reports(n, m, scope) == expected
        assert kept_streams(scope) == [(stream, n, m, *self.EXHAUSTIVE) for stream in kept]
        stream = self.exhaustive("tables", n, m)
        # every scan of the tables builds the blocks again
        assert all(built.count(joined) > 1 for joined in stream)


class TestBlockColumns:
    def test_columns_equal_the_per_outcome_build(self):
        # the last outcome's column is derived from the others, which holds
        # for the digits every kind of block carries
        def per_outcome(block):
            cells, joined = block.sp.tops_count, block.joined
            return [
                tuple(
                    sum(1 << r for r, digit in enumerate(joined[c::cells]) if digit == x)
                    for x in range(block.sp.m)
                )
                for c in range(cells)
            ]

        sp23 = _engine.space(2, 3)
        one_rule = [
            DictatorRule(3, 3, 1), ConstantRule(2, 4, 3),
            MajorityLexRule(3), TopsTableRule(2, 3, (0, 1, 2, 2, 1, 0, 1, 1, 2)),
        ]
        first = next(_iter_rule_blocks(2, 3, "exhaustive", None, None))
        blocks = [
            *_iter_rule_blocks(2, 2, "exhaustive", None, None),
            *_iter_rule_blocks(3, 2, "exhaustive", None, None),
            *_iter_rule_blocks(2, 3, "exhaustive", None, None),
            *_lemmas._blocks("class", 2, 3, "exhaustive", None, None, {}),
            *_iter_rule_blocks(3, 3, "sampled", 300, 1),
            *_iter_rule_blocks(2, 4, "sampled", 300, 2),
            *_lemmas._table_blocks(sp23, (_engine.digits_from_code(c, 9, 3) for c in (5, 19682, 7))),
            first.cut(0b1011), first.cut(first.full >> 1),
            *(
                _engine.Block(
                    _engine.space(rule.n, rule.m), bytes(as_tops_table(rule).outcomes), (0,)
                )
                for rule in one_rule
            ),
        ]
        for block in blocks:
            assert _engine._columns_of(block.joined, block.sp) == per_outcome(block)

    def test_a_cut_block_holds_the_columns_of_its_rules(self):
        block = next(_iter_rule_blocks(2, 3, "exhaustive", None, None))
        for bits in (block.full, block.full >> 1, 0b1011):
            cut = block.cut(bits)
            rows = _engine.bit_indices(bits)
            assert cut.joined == b"".join(block.digits(r) for r in rows)
            assert list(cut.codes) == [block.codes[r] for r in rows]
            assert cut.cols == _engine._columns_of(cut.joined, cut.sp)

    @pytest.mark.parametrize("method", ["cells", "scan"])
    def test_a_one_rule_block_builds_its_columns_once(self, monkeypatch, method):
        # the verdict kernel and the unanimity bit read the same block
        built = spy_columns(monkeypatch)
        classify_all(TopsTableRule(2, 3, (0, 0, 0, 0, 1, 1, 0, 1, 2)), method=method)
        assert built == [1]

    def test_columns_are_computed_once(self, monkeypatch):
        sp = _engine.space(2, 3)
        tables = constants_and_dictators(sp)
        block = _engine.Block(sp, b"".join(map(bytes, tables)), range(5))
        built = spy_columns(monkeypatch)
        cols = block.cols
        assert block.cols is cols
        assert built == [5]
        # bit r of outcome x's bitset at tops code tc: table r selects x there
        expected_cols = [
            tuple(sum(1 << r for r, t in enumerate(tables) if t[tc] == x) for x in range(3))
            for tc in range(sp.tops_count)
        ]
        assert cols == expected_cols
