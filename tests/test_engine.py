"""Integer kernels against their definitional object twins."""

import random
from itertools import product

import pytest

from gsverify import (
    ManipulationWitness,
    TopsTableRule,
    Verdict,
    classify_profile,
    decode_preference,
    enumerate_profiles,
    find_manipulation,
    is_efficient,
    is_unanimous,
    profile_from_code,
)
from gsverify._engine import (
    DICTATORIAL,
    MANIPULABLE,
    space,
    table_efficient_definitional,
    table_manipulation,
    table_profile_verdicts,
    table_unanimous,
)

VERDICT_BITS = {Verdict.DICTATORIAL: DICTATORIAL, Verdict.MANIPULABLE: MANIPULABLE}


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
        assert table_efficient_definitional(t, sp) == is_efficient(TopsTableRule(n, m, t)), t


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
    assert verdicts == [is_efficient(TopsTableRule(2, 3, t)) for t in tables]
    assert 0 < sum(verdicts) < len(tables)


@pytest.mark.parametrize("n,m,count", [(2, 2, 0), (3, 2, 0), (2, 3, 300)])
def test_unanimity_kernel_matches_object_layer(n, m, count):
    sp = space(n, m)
    tables = seeded_tables(n, m, count, 20264) if count else all_tables(n, m)
    tables += constants_and_dictators(n, m)
    verdicts = [table_unanimous(t, sp) for t in tables]
    assert verdicts == [is_unanimous(TopsTableRule(n, m, t)) for t in tables]
    # the sampled rule stream hands the kernels bytes
    assert verdicts == [table_unanimous(bytes(t), sp) for t in tables]
    assert 0 < sum(verdicts) < len(tables)
