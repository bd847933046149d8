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
dictator scans of ``rules`` read a full table with it.
``profile_dominated``, each profile code's Pareto-dominated mask, is
enumerated from the agents' rankings, never taken from the tops-cell masks.
``cell_lines`` gives, per tops cell and agent, the agent's top and its line,
the m cells its m! misreports reach.  Both are built lazily once per (n, m),
never at import or in ``Space``.

A tops-table rule's per-profile verdicts read the rule only at the
profile's cell and its agents' lines, so ``block_profile_verdicts`` decides
each cell once, the dictatorial verdict by ``_nondictatorial_cells`` (the
one dictatorial-cell kernel), and gives it to the cell's profiles through
``profile_tops_codes``.  ``block_manipulable`` walks every (cell, agent,
ranking with the agent's top): each profile's agent term is one such
triple, and every triple occurs.

Rule streams go through the rule-block kernels a block at a time.  A
``Block`` is one value: its rules' digits back to back in one ``bytes``
and their codes; bit r of every bitset the kernels return stands for rule
r, so each visit above is a few big-int operations covering the whole
block.  ``Block.cols``, its one column form, gives per tops code and
outcome the rules selecting it, built once per block; the verdict kernels
OR it over the cells of each agent's line.  ``Block.verdicts`` keeps the
block's ``block_profile_verdicts`` the same way.  This module keeps nothing
between calls: a block that is scanned again (a stream a ``lemmas`` run
keeps in its scope) is the same object, columns, verdicts and all.
The block predicates (``block_unanimous``, ``block_efficient_cells``,
``block_efficient_definitional``, ``block_dictators`` and
``block_manipulable``, which decides strategy-proofness for every
rule-stream check) read these columns and answer for the rules of a given
bitset; ``block_unanimous_digits`` answers ``block_unanimous`` for a whole
block from the digits of its m unanimous cells, with no columns, so the
sampled census builds columns only for the unanimous rules it cuts out.
``block_profile_verdicts`` gives the per-profile verdicts of L4, L5, C2, R1
and ``classify --method scan``, whose per-rule counts ``bit_planes`` sums
into carry planes; ``block_cell_masks`` gives the non-dictatorial tops
cells and the counts of their profiles (|M_f|) and of the rest (|D_f|) to R2
and ``classify --method cells`` (a block of one rule, as are ``classify``'s
unanimity and ``rules.efficient_via_tops``); ``census_rows`` sums the cells
alone with its stage bitsets into one class key per rule.  The per-rule
twins of the block kernels are the tests' references.  ``digits_from_code``
turns a rule code into its digits k at a time through a table of every
k-digit string, and ``_tops_string`` prints a rule's digits as its
canonical ``TOPS`` string.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import permutations, product

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


@lru_cache(maxsize=None)
def cell_lines(n: int, m: int) -> tuple[tuple[tuple[int, range], ...], ...]:
    """Per tops code, per agent i, ``(top, line)``: the agent's top and the m
    cells ``tops_code + (x - top) * w_i`` reached by replacing it with each
    alternative x, ascending.  These are the cells that the agent's m!
    misreports reach, each once: ORing one column twice adds nothing."""
    sp = space(n, m)
    return tuple(
        tuple(
            (t, range(tc - t * w, tc + (m - t) * w, w))
            for t, w in zip(tops, sp.tops_weights)
        )
        for tc, tops in enumerate(sp.tops_tuples)
    )


@lru_cache(maxsize=None)
def profile_dominated(n: int, m: int) -> tuple[int, ...]:
    """The Pareto-dominated mask of every profile code, ascending: bit x is set
    when some other alternative is ranked above x by every agent.  Enumerated
    from the agents' rankings, and only within the profile-work budget."""
    check_profile_work(n, m)
    sp = space(n, m)
    above = tuple(
        tuple(
            sum(1 << y for y in range(m) if pos[y] < pos[x]) for x in range(m)
        )
        for pos in sp.position
    )
    everything = (1 << m) - 1
    masks = []
    for pref_codes in product(range(sp.fact), repeat=n):
        dominated = 0
        for x in range(m):
            beaten_by = everything
            for p in pref_codes:
                beaten_by &= above[p][x]
            if beaten_by:
                dominated |= 1 << x
        masks.append(dominated)
    return tuple(masks)


# ---------------------------------------------------------------------------
# Rule-block kernels: bit r of every bitset stands for rule r of the block.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _outcome_tables(m: int) -> tuple[bytes, ...]:
    """Per outcome x, the ``translate`` table taking byte x to b"1" and any
    other byte to b"0"."""
    tables = []
    for x in range(m):
        table = bytearray(b"0" * 256)
        table[x] = ord("1")
        tables.append(bytes(table))
    return tuple(tables)


def _selecting(column: bytes, table: bytes) -> int:
    """The rules of a column, one digit per rule, whose digit is the outcome
    of ``table`` (from ``_outcome_tables``)."""
    # reversed: int() reads the most significant digit first
    return int(column.translate(table)[::-1], 2)


def _columns_of(joined: bytes, sp: Space) -> list[tuple[int, ...]]:
    """A block's columns: per tops code, the rule bitset of each outcome.

    Every ``Block`` holds digits below m (the exhaustive and sampled streams,
    drawn codes, class draws, one-rule blocks of parsed rules and ``cut``
    alike), so each rule selects exactly one outcome per cell: the last
    outcome's rules are the ones selecting none of the others."""
    cells = sp.tops_count
    eq = _outcome_tables(sp.m)[:-1]
    full = (1 << len(joined) // cells) - 1
    # reversed once: int() reads the most significant digit, the last rule, first
    backwards = joined[::-1]
    cols = []
    for c in range(cells):
        column = backwards[cells - 1 - c :: cells]
        outs = [int(column.translate(t), 2) for t in eq]
        outs.append(full - sum(outs))  # the others are disjoint subsets of full
        cols.append(tuple(outs))
    return cols


def bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending."""
    text = format(bits, "b")[::-1]
    found = []
    r = text.find("1")
    while r >= 0:
        found.append(r)
        r = text.find("1", r + 1)
    return found


def low_bit(bits: int) -> int:
    """The position of the lowest set bit of a non-zero int."""
    return (bits & -bits).bit_length() - 1


class Block:
    """A block of tops-table rules: their digits back to back in ``joined``,
    ``tops_count`` per rule, so ``joined[c::cells]`` is column c, one byte per
    rule; and their ``codes`` (rule codes, indices in the product over the
    efficient class, positions in a sampled or drawn stream).  Bit r of
    ``full`` stands for rule r.  A block builds its columns and verdicts on
    first use and keeps them as long as it lives.
    """

    __slots__ = ("sp", "joined", "codes", "count", "full", "_cols", "_verdicts")

    def __init__(self, sp: Space, joined: bytes, codes: Sequence[int]):
        self.sp = sp
        self.joined = joined
        self.codes = codes
        self.count = len(joined) // sp.tops_count
        self.full = (1 << self.count) - 1
        self._cols = self._verdicts = None

    @property
    def cols(self) -> list[tuple[int, ...]]:
        """Per tops code, the bitset of rules selecting each outcome."""
        if self._cols is None:
            self._cols = _columns_of(self.joined, self.sp)
        return self._cols

    @property
    def verdicts(self) -> tuple[list[int], list[int]]:
        """The block's ``block_profile_verdicts``, decided on first use."""
        if self._verdicts is None:
            self._verdicts = block_profile_verdicts(self)
        return self._verdicts

    def digits(self, r: int) -> bytes:
        """The digits of rule r."""
        cells = self.sp.tops_count
        return self.joined[r * cells : (r + 1) * cells]

    def cut(self, bits: int) -> Block:
        """The block of the rules in ``bits``, in order, with their codes."""
        rows = bit_indices(bits)
        cells, joined = self.sp.tops_count, self.joined
        cut = b"".join([joined[r * cells : (r + 1) * cells] for r in rows])
        return Block(self.sp, cut, [self.codes[r] for r in rows])


_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bit_counts(bitsets: Iterable[int], count: int) -> list[int]:
    """Per rule r < count, how many of ``bitsets`` have bit r set (exact)."""
    return plane_counts(bit_planes(bitsets), count)


def bit_planes(bitsets: Iterable[int]) -> list[int]:
    """How many of ``bitsets`` have each bit set, as carry planes: bit r of
    plane j is bit j of rule r's count, at most ceil(log2(B + 1)) planes for
    B bitsets."""
    planes: list[int] = []
    for carry in bitsets:
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def plane_counts(planes: Sequence[int], count: int) -> list[int]:
    """Per rule r < count, its count from the carry planes of ``bit_planes``,
    spread to byte lanes (``bit_flags``) eight planes at a time."""
    totals = list(bit_flags(planes[:8], count))
    for low in range(8, len(planes), 8):
        group = bit_flags(planes[low : low + 8], count)
        totals = [t | b << low for t, b in zip(totals, group)]
    return totals


def bit_flags(bitsets: Sequence[int], count: int) -> bytes:
    """Per rule r < count, one byte whose bit i is bit r of ``bitsets[i]``
    (at most 8 bitsets, so the byte lanes they are added in never carry)."""
    lanes = 0
    for i, bits in enumerate(bitsets):
        # bit r of ``bits`` moved to the low bit of byte r
        spread = format(bits, f"0{count}b").encode().translate(_ASCII_BITS)
        lanes += int.from_bytes(spread, "big") << i
    return lanes.to_bytes(count, "little")


def block_profile_verdicts(block: Block) -> tuple[list[int], list[int]]:
    """(dictatorial, manipulable) rule bitsets per profile code for a block of
    tops-table rules: bit r of entry pc is rule r's verdict at profile pc.

    The semantics of ``table_profile_verdicts``, for every rule at once, each
    tops cell decided once and its verdicts given to every profile of the
    cell.  The cell is dictatorial for the rules ``_nondictatorial_cells``
    leaves out.  For every agent, the rules reaching each outcome at a cell of
    its line; for every stand-in with the agent's top, walked in its ranking
    order, the manipulable rules are those whose outcome is ranked below a
    reached one.
    """
    sp, m = block.sp, block.sp.m
    tops_codes = profile_tops_codes(sp.n, m)  # within the profile-work budget
    cols = block.cols
    orders = tuple(
        tuple(sp.rankings[p] for p in sp.prefs_with_top[t]) for t in range(m)
    )
    manipulable = []
    for outs, agents in zip(cols, cell_lines(sp.n, m)):
        manip = 0
        for top, line in agents:
            by_outcome = []
            for x in range(m):
                hits = 0
                for c in line:
                    hits |= cols[c][x]
                by_outcome.append(hits)
            for order in orders[top]:
                above = by_outcome[top]
                for x in order[1:]:
                    manip |= outs[x] & above
                    above |= by_outcome[x]
        manipulable.append(manip)
    dictatorial = [block.full ^ nd for nd in _nondictatorial_cells(block)]
    return (
        list(map(dictatorial.__getitem__, tops_codes)),
        list(map(manipulable.__getitem__, tops_codes)),
    )


def block_manipulable(block: Block, within: int) -> int:
    """The rules of ``within`` that some agent can manipulate (bit r = rule
    r): the ones that are not strategy-proof.

    Definitional, for every rule at once.  An agent's term at a profile reads
    the rule at the profile's cell and the cells of the agent's line (every
    cell its m! misreports reach), ranked by the agent's own ranking, so the
    kernel walks every (cell, agent, ranking with the agent's top): each
    profile's agent term is one of these, and each occurs.  The rules reaching
    each outcome are walked in that ranking; a rule is manipulable there when
    its outcome is ranked strictly below an outcome it reaches.  The scan
    stops early only once every rule of ``within`` is manipulable.
    """
    sp, cols = block.sp, block.cols
    rankings, prefs_with_top = sp.rankings, sp.prefs_with_top
    manip = 0
    for outs, agents in zip(cols, cell_lines(sp.n, sp.m)):
        for top, line in agents:
            for p in prefs_with_top[top]:
                above = 0  # rules reaching an outcome ranked above x
                for x in rankings[p]:
                    manip |= outs[x] & above
                    for c in line:
                        above |= cols[c][x]
        if manip & within == within:
            break
    return manip & within


def block_cell_masks(block: Block) -> tuple[list[int], list[int], list[int]]:
    """``_nondictatorial_cells``, and per rule |M_f|, their profiles (the
    manipulable ones only where L5 holds at that (n, m)), and |D_f|, the rest."""
    sp, nondictatorial = block.sp, _nondictatorial_cells(block)
    m_counts = [k * sp.cell_profile_count for k in bit_counts(nondictatorial, block.count)]
    return nondictatorial, m_counts, [sp.profile_count - k for k in m_counts]


def _nondictatorial_cells(block: Block) -> list[int]:
    """Per tops code, the rules for which the cell is not dictatorial: some
    agent whose top is not the outcome gets another one at a cell of its line
    (``cell_lines``).  The one dictatorial-cell kernel: ``block_cell_masks``,
    ``constructions.census_rows`` and ``block_profile_verdicts`` read it."""
    sp, m, full, cols = block.sp, block.sp.m, block.full, block.cols
    nondictatorial = []
    for outs, agents in zip(cols, cell_lines(sp.n, m)):
        nd = 0
        for x in range(m):
            stays = full
            for t, line in agents:
                if t != x:
                    for c in line:
                        stays &= cols[c][x]
            nd |= outs[x] & ~stays
        nondictatorial.append(nd)
    return nondictatorial


def expand_cells_to_profiles(sp: Space, cells_mask: int) -> int:
    """Bitset over profile codes covering every profile in the masked cells."""
    check_profile_work(sp.n, sp.m)
    in_mask = [(cells_mask >> tc) & 1 for tc in range(sp.tops_count)]
    bits = bytes(map(in_mask.__getitem__, profile_tops_codes(sp.n, sp.m)))
    # reversed: int() reads the most significant digit first
    return int(bits.translate(_BIT_DIGITS)[::-1], 2)


# ---------------------------------------------------------------------------
# Rule-block predicates over a block's columns (``Block.cols``).  Each
# returns the rules of ``within`` that pass, bit r standing for rule r.
# ---------------------------------------------------------------------------


def block_unanimous(block: Block, within: int) -> int:
    """The rules of ``within`` selecting the shared top at every unanimous cell."""
    cols = block.cols
    for tc, x in block.sp.unanimous_cells:
        within &= cols[tc][x]
    return within


def block_unanimous_digits(block: Block) -> int:
    """``block_unanimous`` over every rule of a block, read from the digits
    of its m unanimous cells alone: no columns are built or kept."""
    sp, joined, unanimous = block.sp, block.joined, block.full
    cells = sp.tops_count
    eq = _outcome_tables(sp.m)
    for tc, x in sp.unanimous_cells:
        unanimous &= _selecting(joined[tc::cells], eq[x])
    return unanimous


def block_efficient_cells(block: Block, within: int) -> int:
    """Tops-level criterion: the rules of ``within`` selecting one of the
    agents' tops at every cell."""
    for outs, tops in zip(block.cols, block.sp.cell_tops_sets):
        selects_a_top = 0
        for x in tops:
            selects_a_top |= outs[x]
        within &= selects_a_top
    return within


def block_efficient_definitional(block: Block, within: int) -> int:
    """Pareto check over every profile: the rules of ``within`` whose outcome no
    alternative beats in every agent's ranking, read from the enumerated
    dominated masks of ``profile_dominated`` (never from the tops-cell masks)."""
    sp, cols = block.sp, block.cols
    alternatives = range(sp.m)
    for tc, dominated in zip(
        profile_tops_codes(sp.n, sp.m), profile_dominated(sp.n, sp.m)
    ):
        outs = cols[tc]
        for x in alternatives:
            if (dominated >> x) & 1:
                within &= ~outs[x]
        if not within:
            break
    return within


def block_dictators(block: Block, within: int) -> list[int]:
    """Per agent i, the rules of ``within`` that are agent i's dictatorship:
    they select agent i's top at every cell."""
    sp, cols = block.sp, block.cols
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

# Strings per digit table of ``digits_from_code``.
DIGIT_TABLE_STRINGS = 2048


@lru_cache(maxsize=None)
def _digit_plan(cells: int, m: int) -> tuple[int, tuple[bytes, ...], int, tuple[bytes, ...]]:
    """(m**k, the table of every k-digit string, whole k-digit groups, the
    table of the leading ``cells % k`` digits) for ``digits_from_code``: k
    the most digits, at least 1, whose table holds at most
    ``DIGIT_TABLE_STRINGS`` strings.  Entry c of a table holds the base-m
    digits of c."""
    k = 1
    while k < cells and m ** (k + 1) <= DIGIT_TABLE_STRINGS:
        k += 1
    table = tuple(map(bytes, product(range(m), repeat=k)))
    head = tuple(map(bytes, product(range(m), repeat=cells % k)))
    return len(table), table, cells // k, head


def digits_from_code(code: int, cells: int, m: int) -> bytes:
    """The ``cells`` base-m digits of a rule code, most significant first, k
    digits per ``divmod`` through the k-digit table of ``_digit_plan``."""
    radix, table, whole, head = _digit_plan(cells, m)
    parts = []
    for _ in range(whole):
        code, low = divmod(code, radix)
        parts.append(table[low])
    parts.append(head[code])
    parts.reverse()
    return b"".join(parts)


def _tops_string(n: int, m: int, digits: Iterable[int]) -> str:
    """The canonical ``TOPS`` string of the tops table ``digits`` at (n, m):
    ``TopsTableRule.to_string`` and the rule-stream reports both print
    through it, so a census never needs the rule objects."""
    return f"TOPS:n={n},m={m}:{''.join(map(str, digits))}"
