"""Integer-coded fast paths over one (n, m) profile space.

Everything here works on plain ints: preference rank codes, mixed-radix
profile codes (agent 0 most significant), tops codes over the m**n tops
cells, and tops-table rules as outcome tuples indexed by tops code.  The
object layer in ``prefs``/``rules`` handles parsing, witnesses and
readability; these tables keep exhaustive scans fast.

``full_table_manipulation`` decides strategy-proofness for any rule from its
outcome per profile code, in (profile code, agent, misreport code) order over
all m! misreports; ``rules.find_manipulation`` and ``is_strategy_proof`` run
through it.  ``full_table_dictatorial_count`` counts the dictatorial
profiles of such a table from the same misreport slices (``classify``, for
rules not tops-only by construction).  ``profile_tops_codes`` gives each
profile code's tops code: ``rules.as_full_table`` expands the tops table of
a rule tops-only by construction with it, and the unanimity, tops-only and
dictator scans of ``rules`` read a full table with it.  The per-profile
block kernels (``block_profile_verdicts``, ``block_manipulable`` and
``block_efficient_definitional``) and ``rules.find_efficiency_violation``
read ``profile_rows``, built lazily once per (n, m), never at import or in
``Space``.  A row's Pareto-dominated mask is enumerated in full from the
agents' rankings, never taken from the tops-cell masks; each agent's row
holds the distinct offsets that its m! misreports reach, and each profile is
decided from its own row: nothing is computed once per tops cell and copied
to its profiles.  The verdict kernel tries every stand-in preference with
the agent's top; ``block_manipulable`` ranks the reached outcomes by the
agent's own preference at that profile.

Rule streams go through the rule-block kernels a block at a time: a block is
its rules' digits back to back in one ``bytes``, and bit r of every bitset
the kernels return stands for rule r, so each visit above is a few big-int
operations covering the whole block.  ``block_columns`` gives, per tops
code and outcome, the rules selecting it; the columns of each distinct block
of an exhaustive stream are computed once and kept in ``COLUMN_MEMO``, at
most ``COLUMN_MEMO_BYTES`` of them, least recently used evicted first.  The
kernels that read columns take ``keep``: sampled streams pass
``keep=False``, because no later call asks for their blocks again, and get
their columns computed without a memo record.  The block
predicates (``block_unanimous``, ``block_efficient_cells``,
``block_efficient_definitional`` and ``block_dictators``) read these
columns and answer for the rules of a given bitset.  ``block_manipulable``
decides strategy-proofness for every rule-stream check;
``block_profile_verdicts`` gives the per-profile verdicts of L4, L5, C2 and
``classify --method scan``; ``block_cell_masks`` gives the non-dictatorial
tops cells and the exact |M_f| and |D_f| of R1, R2, ``census_rows`` (whose
per-rule flag bytes ``bit_flags`` spreads from the stage bitsets) and
``classify --method cells`` (a block of one rule, as are ``classify``'s
unanimity and ``rules.efficient_via_tops``).  The per-rule twins of the
block kernels are the tests' references.
``digits_from_code`` turns a rule code into its digits k at a time through
the table of all k-digit strings that the exhaustive stream also builds its
blocks from.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, permutations, product
from operator import add

from .prefs import check_profile_work

Table = Sequence[int]


class Space:
    """Precomputed lookup tables for a fixed (n, m) profile space."""

    __slots__ = (
        "n",
        "m",
        "fact",
        "rankings",
        "top_of",
        "position",
        "prefs_with_top",
        "profile_count",
        "tops_count",
        "tops_tuples",
        "tops_weights",
        "cell_profile_count",
        "unanimous_cells",
        "cell_tops_sets",
        "dictator_tables",
    )

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.rankings = tuple(permutations(range(m)))
        self.fact = len(self.rankings)
        self.top_of = tuple(r[0] for r in self.rankings)
        position = []
        for r in self.rankings:
            row = [0] * m
            for depth, x in enumerate(r):
                row[x] = depth
            position.append(tuple(row))
        self.position = tuple(position)
        self.prefs_with_top = tuple(
            tuple(p for p in range(self.fact) if self.top_of[p] == x) for x in range(m)
        )
        self.profile_count = self.fact**n
        self.tops_count = m**n
        self.tops_tuples = tuple(product(range(m), repeat=n))
        self.tops_weights = tuple(m ** (n - 1 - i) for i in range(n))
        self.cell_profile_count = math.factorial(m - 1) ** n
        # (tops code, shared top) of every cell where all agents share a top
        self.unanimous_cells = tuple(
            (tc, t[0]) for tc, t in enumerate(self.tops_tuples) if len(set(t)) == 1
        )
        self.cell_tops_sets = tuple(tuple(sorted(set(t))) for t in self.tops_tuples)
        self.dictator_tables = tuple(
            tuple(t[i] for t in self.tops_tuples) for i in range(n)
        )

    def tops_code_of(self, pref_codes: Sequence[int]) -> int:
        code = 0
        for p in pref_codes:
            code = code * self.m + self.top_of[p]
        return code


@lru_cache(maxsize=None)
def space(n: int, m: int) -> Space:
    return Space(n, m)


@lru_cache(maxsize=None)
def profile_tops_codes(n: int, m: int) -> tuple[int, ...]:
    """The tops code of every profile code, ascending."""
    check_profile_work(n, m)
    sp = space(n, m)
    per_agent = [[sp.top_of[p] * w for p in range(sp.fact)] for w in sp.tops_weights]
    return tuple(map(sum, product(*per_agent)))


# ---------------------------------------------------------------------------
# Per-profile rows, definitional path.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def profile_rows(n: int, m: int) -> tuple[tuple[int, int, tuple], ...]:
    """One (tops_code, dominated_mask, agents) row per profile code, ascending.

    ``agents`` holds, per agent i, ``(top, base, offsets, stand_ins)``: the
    agent's top, ``base = tops_code - top * w_i``, the distinct offsets
    ``top_of[q] * w_i`` over all m! misreports q, and the "ranked strictly
    above x" masks of every preference with that top.  Bit x of
    ``dominated_mask`` is set when some other alternative is ranked above x
    by every agent.  Built on first use, never at import, and only within the
    profile-work budget.
    """
    check_profile_work(n, m)
    sp = space(n, m)
    above = tuple(
        tuple(
            sum(1 << y for y in range(m) if pos[y] < pos[x]) for x in range(m)
        )
        for pos in sp.position
    )
    stand_ins = tuple(
        tuple(above[p] for p in sp.prefs_with_top[t]) for t in range(m)
    )
    # every misreport's offset, each distinct one kept once: ORing one
    # column twice adds nothing
    offsets = tuple(
        tuple(dict.fromkeys(sp.top_of[q] * w for q in range(sp.fact)))
        for w in sp.tops_weights
    )
    cell_agents = tuple(
        tuple(
            (t, tc - t * w, offs, stand_ins[t])
            for t, w, offs in zip(tops, sp.tops_weights, offsets)
        )
        for tc, tops in enumerate(sp.tops_tuples)
    )
    everything = (1 << m) - 1
    rows = []
    for pref_codes in product(range(sp.fact), repeat=n):
        dominated = 0
        for x in range(m):
            beaten_by = everything
            for p in pref_codes:
                beaten_by &= above[p][x]
            if beaten_by:
                dominated |= 1 << x
        tc = sp.tops_code_of(pref_codes)
        rows.append((tc, dominated, cell_agents[tc]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Rule-block kernels: bit r of every bitset stands for rule r of the block.
# ---------------------------------------------------------------------------


# Bytes of block columns the memo retains.  The serial (2,3) suite's 47
# distinct blocks (0.55 MB with their keys) fit: its lemmas walk the same
# blocks in the same order, so a memo too small for all of them evicts each
# block just before it is asked for again.  One 2048-rule block at (5,3)
# holds about 0.5 MB.
COLUMN_MEMO_BYTES = 1 << 20


class ColumnMemo:
    """Block columns per (block bytes, ``Space``), least recently used first,
    evicted while their retained bytes exceed ``limit``.  It holds columns
    only, never a verdict: every kernel computes its answer from them."""

    def __init__(self, limit: int):
        self.limit = limit
        self.records: OrderedDict = OrderedDict()  # key -> [count, cols, wide, bytes]
        self.size = 0
        self.misses = 0

    def lookup(self, joined: bytes, sp: Space, wide: bool, keep: bool = True) -> list:
        """The block's record, made most recent; ``wide`` fills its wide
        columns if they are missing.  A block the memo does not hold is
        added only if ``keep``."""
        key = (joined, sp)
        record = self.records.pop(key, None)
        if record is None:
            self.misses += 1
            count, cols = _columns_of(joined, sp)
            size = sys.getsizeof(joined) + sum(map(sys.getsizeof, chain(*cols)))
            record = [count, cols, None, size]
        else:
            self.size -= record[3]
            keep = True  # a held block goes back
        if wide and record[2] is None:
            count, cols = record[0], record[1]
            record[2] = [
                sum(s << shift for s, shift in zip(col, range(0, sp.m * count, count)))
                for col in cols
            ]
            record[3] += sum(map(sys.getsizeof, record[2]))
        if keep:
            self.records[key] = record
            self.size += record[3]
            while self.size > self.limit:
                self.size -= self.records.popitem(last=False)[1][3]
        return record


def _columns_of(joined: bytes, sp: Space) -> tuple[int, list[tuple[int, ...]]]:
    cells = sp.tops_count
    eq = []  # per outcome x: byte x -> b"1", any other byte -> b"0"
    for x in range(sp.m):
        table = bytearray(b"0" * 256)
        table[x] = ord("1")
        eq.append(table)
    cols = []
    for c in range(cells):
        col = joined[c::cells]
        # reversed: int() reads the most significant digit first
        cols.append(tuple(int(col.translate(t)[::-1], 2) for t in eq))
    return len(joined) // cells, cols


COLUMN_MEMO = ColumnMemo(COLUMN_MEMO_BYTES)


def block_columns(
    joined: bytes, sp: Space, keep: bool = True
) -> tuple[int, list[tuple[int, ...]]]:
    """(rules in the block, per tops code the bitset of rules selecting each outcome).

    ``joined`` holds the block's tables back to back, ``tops_count`` digits
    each, so ``joined[c::cells]`` is column c: one byte per rule.  Computed
    once per distinct block and kept in ``COLUMN_MEMO`` if ``keep``.
    """
    count, cols, _wide, _size = COLUMN_MEMO.lookup(joined, sp, False, keep)
    return count, cols


def _block_wide_columns(
    joined: bytes, sp: Space, keep: bool
) -> tuple[int, list[tuple[int, ...]], tuple[int, ...], list[int]]:
    """``block_columns`` plus, per tops code, one int holding every outcome's
    rule bitset: outcome x in bits ``[shifts[x], shifts[x] + count)``."""
    count, cols, wide, _size = COLUMN_MEMO.lookup(joined, sp, True, keep)
    return count, cols, tuple(range(0, sp.m * count, count)), wide


_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _spread(bits: int, count: int) -> int:
    """Bit r of ``bits`` (r < count) moved to the low bit of byte r."""
    return int.from_bytes(format(bits, f"0{count}b").encode().translate(_ASCII_BITS), "big")


def bit_counts(bitsets: Iterable[int], count: int) -> list[int]:
    """Per rule r < count, how many of ``bitsets`` have bit r set (exact).

    Each bitset is spread to one byte per rule and at most 255 of them are
    summed in these byte lanes before the lanes are added to the totals, so
    no lane ever carries into the next.
    """
    totals = [0] * count
    lanes = pending = 0
    for bits in bitsets:
        lanes += _spread(bits, count)
        pending += 1
        if pending == 255:
            totals = list(map(add, totals, lanes.to_bytes(count, "little")))
            lanes = pending = 0
    if pending:
        totals = list(map(add, totals, lanes.to_bytes(count, "little")))
    return totals


def bit_flags(bitsets: Sequence[int], count: int) -> bytes:
    """Per rule r < count, one byte whose bit i is bit r of ``bitsets[i]``
    (at most 8 bitsets, so the byte lanes they are added in never carry)."""
    lanes = 0
    for i, bits in enumerate(bitsets):
        lanes += _spread(bits, count) << i
    return lanes.to_bytes(count, "little")


def block_profile_verdicts(
    joined: bytes, sp: Space, keep: bool = True
) -> tuple[list[int], list[int]]:
    """(dictatorial, manipulable) rule bitsets per profile code for a block of
    tops-table rules: bit r of entry pc is rule r's verdict at profile pc.

    The semantics of ``table_profile_verdicts``, for every rule at once.  Each
    profile is computed from its own row.  For every agent, the rules reaching
    each outcome by some of all m! misreports; the agent has power under the
    rules whose outcome is not its top and which reach another outcome.  For
    every stand-in with the agent's top, walked in its ranking order, the
    manipulable rules are those whose outcome is ranked below a reached one.
    """
    m = sp.m
    count, cols, shifts, wide = _block_wide_columns(joined, sp, keep)
    full = (1 << count) - 1
    orders = tuple(
        tuple(sp.rankings[p] for p in sp.prefs_with_top[t]) for t in range(m)
    )
    dictatorial = []
    manipulable = []
    for tc, _dominated, agents in profile_rows(sp.n, m):
        outs = cols[tc]
        powerful = manip = 0
        for top, base, offsets, _stand_ins in agents:
            reached = 0
            for off in offsets:
                reached |= wide[base + off]
            by_outcome = []
            seen = several = 0  # rules reaching some / at least two outcomes
            for shift in shifts:
                hits = (reached >> shift) & full
                several |= seen & hits
                seen |= hits
                by_outcome.append(hits)
            for x in range(m):
                if x != top:
                    # rules selecting x here that reach an outcome other than x
                    powerful |= outs[x] & (several | (seen & ~by_outcome[x]))
            for order in orders[top]:
                above = by_outcome[top]
                for x in order[1:]:
                    manip |= outs[x] & above
                    above |= by_outcome[x]
        dictatorial.append(full ^ powerful)
        manipulable.append(manip)
    return dictatorial, manipulable


def block_manipulable(joined: bytes, sp: Space, keep: bool = True) -> int:
    """Bitset of the rules of a block that some agent can manipulate (bit r =
    rule r): the rules that are not strategy-proof.

    Definitional, for every rule at once: every profile from its own row,
    every agent and all m! misreports.  The rules reaching each outcome are
    walked in the agent's own ranking at that profile; a rule is manipulable
    there when its outcome is ranked strictly below an outcome it reaches.
    The scan stops early only once every rule of the block is manipulable.
    """
    count, cols, shifts, wide = _block_wide_columns(joined, sp, keep)
    full = (1 << count) - 1
    rankings = sp.rankings
    manip = 0
    for (tc, _dominated, agents), pref_codes in zip(
        profile_rows(sp.n, sp.m), product(range(sp.fact), repeat=sp.n)
    ):
        outs = cols[tc]
        for (_top, base, offsets, _stand_ins), p in zip(agents, pref_codes):
            reached = 0
            for off in offsets:
                reached |= wide[base + off]
            above = 0  # rules reaching an outcome ranked above x
            for x in rankings[p]:
                manip |= outs[x] & above
                above |= (reached >> shifts[x]) & full
        if manip == full:
            break
    return manip


def block_cell_masks(
    joined: bytes, sp: Space, keep: bool = True
) -> tuple[list[int], list[int], list[int]]:
    """Non-dictatorial-cell rule bitsets per tops code, and |M_f| and |D_f| per rule.

    A cell is dictatorial for a rule when every agent whose top is not the
    outcome gets the outcome at all m cells of its line (the cell with its
    top replaced by each alternative).  Manipulable profiles are the profiles
    of the other cells, ``cell_profile_count`` per cell.
    """
    m = sp.m
    count, cols = block_columns(joined, sp, keep)
    full = (1 << count) - 1
    nondictatorial = []
    for tc, tops in enumerate(sp.tops_tuples):
        lines = [
            (t, range(tc - t * w, tc - t * w + m * w, w))
            for t, w in zip(tops, sp.tops_weights)
        ]
        outs = cols[tc]
        nd = 0
        for x in range(m):
            stays = full
            for t, line in lines:
                if t != x:
                    for c in line:
                        stays &= cols[c][x]
            nd |= outs[x] & ~stays
        nondictatorial.append(nd)
    cpc = sp.cell_profile_count
    m_counts = [k * cpc for k in bit_counts(nondictatorial, count)]
    d_counts = [sp.profile_count - k for k in m_counts]
    return nondictatorial, m_counts, d_counts


def expand_cells_to_profiles(sp: Space, cells_mask: int) -> int:
    """Bitset over profile codes covering every profile in the masked cells."""
    check_profile_work(sp.n, sp.m)
    in_mask = [(cells_mask >> tc) & 1 for tc in range(sp.tops_count)]
    bits = bytes(map(in_mask.__getitem__, profile_tops_codes(sp.n, sp.m)))
    # reversed: int() reads the most significant digit first
    return int(bits.translate(_BIT_DIGITS)[::-1], 2)


# ---------------------------------------------------------------------------
# Rule-block predicates over a block's columns (``block_columns``).  Each
# returns the rules of ``within`` that pass, bit r standing for rule r.
# ---------------------------------------------------------------------------


def block_unanimous(cols: Sequence[tuple[int, ...]], within: int, sp: Space) -> int:
    """The rules of ``within`` selecting the shared top at every unanimous cell."""
    for tc, x in sp.unanimous_cells:
        within &= cols[tc][x]
    return within


def block_efficient_cells(
    cols: Sequence[tuple[int, ...]], within: int, sp: Space
) -> int:
    """Tops-level criterion: the rules of ``within`` selecting one of the
    agents' tops at every cell."""
    for outs, tops in zip(cols, sp.cell_tops_sets):
        selects_a_top = 0
        for x in tops:
            selects_a_top |= outs[x]
        within &= selects_a_top
    return within


def block_efficient_definitional(
    cols: Sequence[tuple[int, ...]], within: int, sp: Space
) -> int:
    """Pareto check over every profile: the rules of ``within`` whose outcome no
    alternative beats in every agent's ranking, read from the enumerated
    dominated masks of the rows (never from the tops-cell masks)."""
    alternatives = range(sp.m)
    for tc, dominated, _agents in profile_rows(sp.n, sp.m):
        outs = cols[tc]
        for x in alternatives:
            if (dominated >> x) & 1:
                within &= ~outs[x]
        if not within:
            break
    return within


def block_dictators(
    cols: Sequence[tuple[int, ...]], within: int, sp: Space
) -> list[int]:
    """Per agent i, the rules of ``within`` that are agent i's dictatorship:
    they select agent i's top at every cell."""
    dictators = []
    for i in range(sp.n):
        rules = within
        for outs, tops in zip(cols, sp.tops_tuples):
            rules &= outs[tops[i]]
            if not rules:
                break
        dictators.append(rules)
    return dictators


# ---------------------------------------------------------------------------
# Scans of one rule's full table (its outcome per profile code).
# ---------------------------------------------------------------------------


def full_table_manipulation(
    table: Table, sp: Space
) -> tuple[int, int, int, int, int] | None:
    """First manipulation of a rule given by its outcome per profile code, or
    None if it is strategy-proof.

    Scan in (profile code, agent, misreport code) order over every profile,
    every agent and all m! misreports: agent i's misreport q sits at profile
    code ``pc + (q - p) * (m!)**(n-1-i)``, where p is the agent's own rank
    code.  Returns (profile_code, agent, misreport_code, sincere, improved).
    """
    outcomes = bytes(table)
    fact = sp.fact
    weights = tuple(fact ** (sp.n - 1 - i) for i in range(sp.n))
    # per rank code and outcome, the alternatives ranked strictly above it
    better = [
        [bytes(ranking[: pos[x]]) for x in range(sp.m)]
        for ranking, pos in zip(sp.rankings, sp.position)
    ]
    for pc, pref_codes in enumerate(product(range(fact), repeat=sp.n)):
        out = outcomes[pc]
        for i, (p, w) in enumerate(zip(pref_codes, weights)):
            above = better[p][out]
            if not above:
                continue
            start = pc - p * w
            reached = outcomes[start : start + fact * w : w]  # entry q: misreport q
            hits = [reached.index(y) for y in above if y in reached]
            if hits:
                q = min(hits)
                return pc, i, q, out, reached[q]
    return None


def full_table_dictatorial_count(table: Table, sp: Space) -> int:
    """|D_f| of a rule given by its outcome per profile code: the profiles at
    which every agent whose top is not the outcome gets the outcome under all
    m! misreports, read from the slices ``full_table_manipulation`` reads."""
    outcomes = bytes(table)
    fact = sp.fact
    weights = tuple(fact ** (sp.n - 1 - i) for i in range(sp.n))
    stays = [bytes((x,)) * fact for x in range(sp.m)]  # every misreport gives x
    count = 0
    for pc, pref_codes in enumerate(product(range(fact), repeat=sp.n)):
        out = outcomes[pc]
        for p, w in zip(pref_codes, weights):
            start = pc - p * w
            if sp.top_of[p] != out and outcomes[start : start + fact * w : w] != stays[out]:
                break
        else:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Rule-code digit arithmetic (tops tables as base-m digit strings).
# ---------------------------------------------------------------------------

# Strings per digit table: a table of k-digit strings has m**k of them.
DIGIT_TABLE_STRINGS = 2048


def digit_width(m: int, cells: int, strings: int) -> int:
    """The most digits k <= cells whose m**k strings fit ``strings`` (at least 1)."""
    k = 1
    while k < cells and m ** (k + 1) <= strings:
        k += 1
    return k


@lru_cache(maxsize=None)
def digit_strings(m: int, k: int) -> tuple[bytes, ...]:
    """All k-digit base-m strings, ascending: entry c holds the digits of c."""
    return tuple(map(bytes, product(range(m), repeat=k)))


@lru_cache(maxsize=None)
def _digit_plan(cells: int, m: int) -> tuple[int, tuple[bytes, ...], int, tuple[bytes, ...]]:
    """(m**k, the k-digit table, whole k-digit groups, the table of the
    leading ``cells % k`` digits) for ``digits_from_code``."""
    k = digit_width(m, cells, DIGIT_TABLE_STRINGS)
    table = digit_strings(m, k)
    return len(table), table, cells // k, digit_strings(m, cells % k)


def digits_from_code(code: int, cells: int, m: int) -> bytes:
    """The ``cells`` base-m digits of a rule code, most significant first, k
    digits per ``divmod`` through the k-digit table of ``digit_strings``."""
    radix, table, whole, head = _digit_plan(cells, m)
    parts = []
    for _ in range(whole):
        code, low = divmod(code, radix)
        parts.append(table[low])
    parts.append(head[code])
    parts.reverse()
    return b"".join(parts)
