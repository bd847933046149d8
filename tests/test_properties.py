"""Property tests: random rule blocks through the block kernels and block
predicates equal the per-rule kernels, predicates and reference scans, rule
by rule."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsverify._engine import (  # noqa: E402
    block_cell_masks,
    block_manipulable,
    block_profile_verdicts,
    space,
)
from test_engine import (  # noqa: E402
    DICTATORIAL,
    MANIPULABLE,
    assert_predicates_match_per_rule,
    block_of,
    cell_counts,
    table_manipulation,
    table_profile_verdicts,
)


def rule_blocks(n, m, max_rules):
    cells = m**n
    table = st.lists(st.integers(0, m - 1), min_size=cells, max_size=cells)
    return st.lists(table, min_size=1, max_size=max_rules)


def check_block(n, m, tables):
    sp = space(n, m)
    block = block_of(sp, tables)
    _, m_counts, d_counts = block_cell_masks(block)
    dictatorial, manipulable = block_profile_verdicts(block)
    for r, table in enumerate(tables):
        assert (m_counts[r], d_counts[r]) == cell_counts(table, sp)
        assert [
            ((d >> r) & 1) * DICTATORIAL | ((mp >> r) & 1) * MANIPULABLE
            for d, mp in zip(dictatorial, manipulable)
        ] == table_profile_verdicts(table, sp)


@settings(max_examples=60, deadline=None)
@given(rule_blocks(3, 3, 12))
def test_block_kernels_equal_per_rule_at_n3_m3(tables):
    check_block(3, 3, tables)


@settings(max_examples=30, deadline=None)
@given(rule_blocks(2, 4, 6))
def test_block_kernels_equal_per_rule_at_n2_m4(tables):
    check_block(2, 4, tables)


def mixed_rule_blocks(n, m, max_rules):
    """Blocks mixing uniform tables, cell-efficient tables (each cell selects
    one of its agents' tops, so manipulations come later or not at all) and
    the dictators and constants (strategy-proof)."""
    sp = space(n, m)
    uniform = st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n)
    efficient = st.tuples(*(st.sampled_from(tops) for tops in sp.cell_tops_sets))
    fixed = st.sampled_from(
        list(sp.dictator_tables) + [(x,) * m**n for x in range(m)]
    )
    return st.lists(st.one_of(uniform, efficient, fixed), min_size=1, max_size=max_rules)


def check_manipulable(n, m, tables):
    sp = space(n, m)
    block = block_of(sp, tables)
    manipulable = block_manipulable(block, block.full)
    for r, table in enumerate(tables):
        assert (manipulable >> r) & 1 == (table_manipulation(table, sp) is not None)


@settings(max_examples=60, deadline=None)
@given(mixed_rule_blocks(3, 3, 12))
def test_block_manipulable_equals_per_rule_scan_at_n3_m3(tables):
    check_manipulable(3, 3, tables)


@settings(max_examples=30, deadline=None)
@given(mixed_rule_blocks(2, 4, 8))
def test_block_manipulable_equals_per_rule_scan_at_n2_m4(tables):
    check_manipulable(2, 4, tables)


@settings(max_examples=60, deadline=None)
@given(mixed_rule_blocks(3, 3, 12))
def test_block_predicates_equal_per_rule_at_n3_m3(tables):
    assert_predicates_match_per_rule(3, 3, tables)


@settings(max_examples=30, deadline=None)
@given(mixed_rule_blocks(2, 4, 8))
def test_block_predicates_equal_per_rule_at_n2_m4(tables):
    assert_predicates_match_per_rule(2, 4, tables)
