"""Value semantics of every exported value class.

Each value class is immutable and compared, hashed and printed by its
fields: construction by position or keyword with class-level defaults,
normalisation and validation at construction, equality only within one
class, equal hashes for equal values, no assignment or deletion, working
cached properties, and ``Name(field=value, ...)`` reprs.
"""

import copy
import enum
import inspect
import pickle

import pytest

import gsverify
from gsverify import (
    BordaLexRule,
    CensusReport,
    ClassificationSummary,
    ConstantRule,
    CounterexampleCertificate,
    DictatorRule,
    FullTableRule,
    MajorityLexRule,
    ManipulationWitness,
    Preference,
    PreferenceDomain,
    Profile,
    ProfileClassification,
    Rule,
    TopsTableRule,
    VerificationReport,
    Verdict,
)
from gsverify.rules import CoalescedRule, RestrictedRule


def pref(text):
    return Preference.from_text(text)


def profile(text):
    return Profile.from_text(text)


# Per class: a factory of keyword arguments (fresh objects on every call, so
# two instances built from it are equal without sharing their fields), and
# overrides each giving an unequal instance.  Between them the overrides
# change every field.
CASES = {
    Preference: (
        lambda: {"ranking": (2, 0, 1)},
        [{"ranking": (0, 2, 1)}, {"ranking": (2, 0, 1, 3)}],
    ),
    Profile: (
        lambda: {"prefs": (pref("a,b,c"), pref("c,a,b"))},
        [
            {"prefs": (pref("a,b,c"), pref("c,b,a"))},
            {"prefs": (pref("a,b,c"), pref("c,a,b"), pref("a,b,c"))},
        ],
    ),
    PreferenceDomain: (
        lambda: {"members": frozenset({pref("a,b,c"), pref("b,a,c")})},
        [{"members": frozenset({pref("a,b,c")})}],
    ),
    DictatorRule: (
        lambda: {"n": 2, "m": 3, "agent": 1},
        [{"n": 3}, {"m": 4}, {"agent": 0}],
    ),
    ConstantRule: (
        lambda: {"n": 2, "m": 3, "alternative": 2},
        [{"n": 3}, {"m": 4}, {"alternative": 0}],
    ),
    TopsTableRule: (
        lambda: {"n": 2, "m": 3, "outcomes": (0, 0, 0, 1, 1, 1, 2, 2, 2)},
        [
            {"outcomes": (0, 1, 2) * 3},
            {"n": 3, "m": 2, "outcomes": (0, 1) * 4},
            {"n": 2, "m": 2, "outcomes": (0, 0, 1, 1)},
        ],
    ),
    FullTableRule: (
        lambda: {"n": 2, "m": 2, "outcomes": (0, 0, 1, 1)},
        [
            {"outcomes": (0, 1, 0, 1)},
            {"n": 3, "outcomes": (0, 1) * 4},
            {"n": 2, "m": 3, "outcomes": (0,) * 36},
        ],
    ),
    BordaLexRule: (
        lambda: {"n": 2, "m": 3},
        [{"n": 3}, {"m": 4}],
    ),
    MajorityLexRule: (
        lambda: {"n": 3, "m": 2},
        [{"n": 5}],
    ),
    ManipulationWitness: (
        lambda: {
            "profile": profile("a,b,c|b,c,a"),
            "agent": 1,
            "misreport": pref("c,b,a"),
            "sincere_outcome": 0,
            "improved_outcome": 1,
        },
        [
            {"profile": profile("a,b,c|b,a,c")},
            {"agent": 0},
            {"misreport": pref("c,a,b")},
            {"sincere_outcome": 2},
            {"improved_outcome": 2},
        ],
    ),
    ProfileClassification: (
        lambda: {
            "profile": profile("a,b,c|b,c,a"),
            "verdict": Verdict.DICTATORIAL,
            "witness": None,
            "violator": None,
        },
        [
            {"profile": profile("a,b,c|b,a,c")},
            {
                "verdict": Verdict.MANIPULABLE,
                "witness": ManipulationWitness(
                    profile("a,b,c|b,c,a"), 1, pref("c,b,a"), 0, 1
                ),
            },
            {
                "verdict": Verdict.MANIPULABLE,
                "witness": ManipulationWitness(
                    profile("a,b,c|b,c,a"), 1, pref("c,b,a"), 0, 1
                ),
                "violator": (1, pref("c,b,a")),
            },
        ],
    ),
    ClassificationSummary: (
        lambda: {
            "rule": "DICT:0",
            "n": 2,
            "m": 3,
            "m_count": 0,
            "d_count": 36,
            "total": 36,
            "unanimous": True,
            "m_set": 0,
            "d_set": (1 << 36) - 1,
        },
        [
            {"rule": "DICT:1"},
            {"n": 3},
            {"m": 4},
            {"m_count": 1},
            {"d_count": 35},
            {"total": 37},
            {"unanimous": False},
            {"m_set": 1},
            {"d_set": None},
        ],
    ),
    CensusReport: (
        lambda: {
            "n": 2,
            "m": 3,
            "mode": "exhaustive",
            "samples": None,
            "seed": None,
            "filters": ("unanimous",),
            "total": 729,
            "unanimous": 729,
            "efficient": 64,
            "strategy_proof": 2,
            "dictatorial": 2,
            "strategy_proof_rules": ("TOPS:n=2,m=3:000111222", "TOPS:n=2,m=3:012012012"),
            "dictator_rules": ("TOPS:n=2,m=3:000111222", "TOPS:n=2,m=3:012012012"),
            "sp_equals_dictators": True,
            "rule_space": "tops-table",
            "note": "a note",
            "elapsed_seconds": 0.5,
        },
        [
            {"n": 3},
            {"m": 4},
            {"mode": "sampled"},
            {"samples": 10},
            {"seed": 1},
            {"filters": ()},
            {"total": 19683},
            {"unanimous": 728},
            {"efficient": 63},
            {"strategy_proof": 1},
            {"dictatorial": 1},
            {"strategy_proof_rules": ()},
            {"dictator_rules": ()},
            {"sp_equals_dictators": False},
            {"rule_space": "full-table"},
            {"note": "another note"},
            {"elapsed_seconds": 0.25},
        ],
    ),
    VerificationReport: (
        lambda: {
            "lemma": "L3",
            "n": 2,
            "m": 3,
            "mode": "exhaustive",
            "samples": None,
            "seed": None,
            "passed": True,
            "checks": 64,
            "counterexample": None,
            "detail": {"efficient_rules": 64},
            "elapsed_seconds": 0.5,
        },
        [
            {"lemma": "L1"},
            {"n": 3},
            {"m": 4},
            {"mode": "sampled"},
            {"samples": 10},
            {"seed": 1},
            {"passed": False},
            {"checks": 63},
            {"counterexample": {"kind": "x"}},
            {"detail": {}},
            {"elapsed_seconds": 0.25},
        ],
    ),
    CounterexampleCertificate: (
        lambda: {
            "rule": MajorityLexRule(3),
            "unanimous": True,
            "strategy_proof": True,
            "tops_only": True,
            "efficient": True,
            "dictator": None,
        },
        [
            {"rule": MajorityLexRule(5)},
            {"unanimous": False},
            {"strategy_proof": False},
            {"tops_only": False},
            {"efficient": False},
            {"dictator": 0},
        ],
    ),
    CoalescedRule: (
        lambda: {"base": DictatorRule(3, 3, 1)},
        [{"base": DictatorRule(3, 3, 2)}],
    ),
    RestrictedRule: (
        lambda: {"base": DictatorRule(3, 3, 0), "fixed": (pref("c,b,a"),)},
        [{"base": DictatorRule(3, 3, 1)}, {"fixed": (pref("b,c,a"),)}],
    ),
}

# fields with a single valid value
FIXED = {MajorityLexRule: {"m"}}
# the field names of each class, in declaration order
FIELDS = {cls: list(factory()) for cls, (factory, _) in CASES.items()}
# the classes whose fields are all hashable; VerificationReport holds dicts
HASHABLE = [cls for cls in CASES if cls not in (VerificationReport,)]


def build(cls, **overrides):
    factory, _ = CASES[cls]
    return cls(**{**factory(), **overrides})


def positional(cls):
    return cls(*CASES[cls][0]().values())


def test_cases_cover_every_exported_value_class():
    exported = {
        obj
        for obj in vars(gsverify).values()
        if isinstance(obj, type)
        and obj.__module__.startswith("gsverify.")
        and not issubclass(obj, (BaseException, enum.Enum))
        and not inspect.isabstract(obj)
    }
    assert exported <= set(CASES)


def test_a_dict_field_makes_a_report_unhashable():
    with pytest.raises(TypeError):
        hash(build(VerificationReport))


def test_overrides_change_every_field():
    for cls, (_, variants) in CASES.items():
        changed = {name for override in variants for name in override}
        assert changed == set(FIELDS[cls]) - FIXED.get(cls, set()), cls.__name__


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
class TestValueClass:
    def test_keyword_and_positional_construction_agree(self, cls):
        by_keyword = build(cls)
        by_position = positional(cls)
        assert by_keyword == by_position
        for name, value in CASES[cls][0]().items():
            assert getattr(by_position, name) == value

    def test_equal_values_are_equal_and_hash_equal(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b
        assert not a != b
        if cls in HASHABLE:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
            assert {a: 1}[b] == 1

    def test_every_field_takes_part_in_equality_and_hash(self, cls):
        base = build(cls)
        for override in CASES[cls][1]:
            other = build(cls, **override)
            assert base != other, override
            assert not base == other, override
            if cls in HASHABLE:
                # distinct small field values collide with negligible odds
                assert hash(base) != hash(other), override
                assert len({base, other}) == 2

    def test_equality_needs_the_same_class(self, cls):
        value = build(cls)
        fields = tuple(getattr(value, name) for name in FIELDS[cls])
        assert value != fields
        assert value != object()
        assert value.__eq__(fields) is NotImplemented
        assert value.__eq__(object()) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = build(cls)
        for name in FIELDS[cls]:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_repr_names_every_field(self, cls):
        value = build(cls)
        inner = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
        assert repr(value) == f"{cls.__qualname__}({inner})"

    def test_arity_errors(self, cls):
        kwargs = CASES[cls][0]()
        first = next(iter(kwargs))
        with pytest.raises(TypeError):
            cls(*kwargs.values(), 0)
        with pytest.raises(TypeError):
            cls(**kwargs, not_a_field=0)
        with pytest.raises(TypeError):
            cls(kwargs[first], **kwargs)
        del kwargs[first]  # the first field never has a default
        with pytest.raises(TypeError):
            cls(**kwargs)

    def test_pickle_and_copy_round_trip(self, cls):
        value = build(cls)
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value


class TestDefaults:
    def test_majority_defaults_to_two_alternatives(self):
        assert MajorityLexRule(3) == MajorityLexRule(3, 2) == MajorityLexRule(n=3)
        assert MajorityLexRule(3).m == 2

    def test_classification_summary_sets_default_to_none(self):
        summary = ClassificationSummary("DICT:0", 2, 3, 0, 36, 36, True)
        assert summary.m_set is None and summary.d_set is None

    def test_census_report_defaults(self):
        kwargs = CASES[CensusReport][0]()
        for name in ("rule_space", "note", "elapsed_seconds"):
            del kwargs[name]
        report = CensusReport(**kwargs)
        assert report.rule_space == "tops-table"
        assert report.note.startswith("quantification over rules")
        assert report.elapsed_seconds == 0.0

    def test_verification_report_gets_a_fresh_detail_dict(self):
        kwargs = CASES[VerificationReport][0]()
        del kwargs["detail"], kwargs["elapsed_seconds"]
        a, b = VerificationReport(**kwargs), VerificationReport(**kwargs)
        assert a.detail == {} and a.elapsed_seconds == 0.0
        assert a.detail is not b.detail
        a.detail["x"] = 1
        assert b.detail == {}


class TestPostInit:
    def test_sequences_are_normalised_to_tuples(self):
        assert Preference([1, 0, 2]).ranking == (1, 0, 2)
        assert Preference([1, 0, 2]) == Preference((1, 0, 2))
        p, q = pref("a,b,c"), pref("c,b,a")
        assert Profile([p, q]).prefs == (p, q)
        assert TopsTableRule(2, 2, [0, 0, 1, 1]).outcomes == (0, 0, 1, 1)
        assert FullTableRule(2, 2, [0, 0, 1, 1]).outcomes == (0, 0, 1, 1)
        fixed = RestrictedRule(DictatorRule(3, 3, 0), [p]).fixed
        assert fixed == (p,) and isinstance(fixed, tuple)
        members = PreferenceDomain({p, q}).members
        assert members == frozenset({p, q}) and isinstance(members, frozenset)

    def test_normalised_values_hash_like_their_tuples(self):
        assert hash(Preference([1, 0, 2])) == hash(Preference((1, 0, 2)))

    @pytest.mark.parametrize("make", [
        lambda: Preference((0, 0, 1)),
        lambda: Profile((pref("a,b,c"),)),
        lambda: Profile((pref("a,b,c"), pref("a,b"))),
        lambda: PreferenceDomain(frozenset()),
        lambda: DictatorRule(2, 3, 2),
        lambda: ConstantRule(2, 3, 3),
        lambda: TopsTableRule(2, 3, (0,) * 8),
        lambda: FullTableRule(2, 2, (0, 0, 2, 1)),
        lambda: MajorityLexRule(3, 3),
        lambda: ProfileClassification(
            profile("a,b,c|b,c,a"), Verdict.MANIPULABLE, None, None
        ),
        lambda: CoalescedRule(DictatorRule(2, 3, 0)),
        lambda: RestrictedRule(DictatorRule(3, 3, 0), ()),
    ])
    def test_validation_rejects_bad_values(self, make):
        with pytest.raises(ValueError):
            make()


class TestCachedProperties:
    def test_cached_values_do_not_change_equality_hash_or_repr(self):
        a, b = Preference((2, 0, 1)), Preference((2, 0, 1))
        assert a.rank_code == 4
        assert a.rank_code == 4  # read back from the cache
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        pa, pb = Profile((a, b)), Profile((b, a))
        assert pa.code == 4 * 6 + 4
        assert pa == pb and hash(pa) == hash(pb) and repr(pa) == repr(pb)

    def test_cached_values_survive_pickling(self):
        p = Profile((Preference((2, 0, 1)), Preference((0, 1, 2))))
        code = p.code
        assert pickle.loads(pickle.dumps(p)).code == code


def test_derived_rules_compare_by_class_and_fields():
    base = DictatorRule(3, 3, 0)
    assert CoalescedRule(base) == CoalescedRule(DictatorRule(3, 3, 0))
    assert DictatorRule(2, 3, 0) != ConstantRule(2, 3, 0)
    assert BordaLexRule(2, 2) != MajorityLexRule(2, 2)
    assert isinstance(CoalescedRule(base), Rule)
