"""Integer manipulation kernel against its definitional object twin."""

import random
from itertools import product

import pytest

from gsverify import (
    ManipulationWitness,
    TopsTableRule,
    decode_preference,
    find_manipulation,
    profile_from_code,
)
from gsverify._engine import space, table_manipulation


def object_witness(n, m, table):
    """find_manipulation on the materialized rule, as the kernel's int tuple."""
    witness = find_manipulation(TopsTableRule(n, m, table))
    if witness is None:
        return None
    return (
        witness.profile.code,
        witness.agent,
        witness.misreport.rank_code,
        witness.sincere_outcome,
        witness.improved_outcome,
    )


def all_tables(n, m):
    return list(product(range(m), repeat=m**n))


@pytest.mark.parametrize("n,m,strategy_proof", [(2, 2, 6), (3, 2, 20), (2, 3, 5)])
def test_kernel_matches_object_layer_on_whole_space(n, m, strategy_proof):
    sp = space(n, m)
    kernel = {t: table_manipulation(list(t), sp) for t in all_tables(n, m)}
    mismatches = [t for t, w in kernel.items() if w != object_witness(n, m, t)]
    assert mismatches == []
    # None exactly where the object layer finds no manipulation
    assert sum(w is None for w in kernel.values()) == strategy_proof


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
