"""Exhaustive verification of social choice axioms at desk scale.

The package models strict preferences and profiles over a small finite
alternative set, social choice rules with explicit table and closed-form
representations, and the classic axioms (unanimity, strategy-proofness,
tops-onlyness, efficiency, dictatorship) as decidable predicates with
witnesses.  Every profile of a tops-only rule is classified as manipulable
or dictatorial; rules compare by how many profiles fall on each side; and a
census engine enumerates the whole tops-table rule space to machine-check
the Gibbard-Satterthwaite theorem at n=2, m=3, including the two-alternative
negative control showing the three-alternative hypothesis is sharp.

The object layer, ``rules`` and ``classify``, is registered with
``importlib.util.LazyLoader``: both are in ``sys.modules`` at once, but
compile only when one of their attributes is first read, and the package
imports their public names on first access (PEP 562).  So a census, which
never builds a rule object, never compiles them, and ``lemmas`` never
compiles ``classify``.  Every command compiles ``errors``, ``prefs`` and
``constructions``, whose names are imported here as usual.
"""

__version__ = "0.1.0"


def _register_lazily(*names: str) -> None:
    """Put each submodule in ``sys.modules`` and in this namespace now, to
    be compiled and executed when one of its attributes is first read."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[spec.name] = globals()[name] = module_from_spec(spec)
        spec.loader.exec_module(module)


# before ``constructions``, which binds ``rules`` at import
_register_lazily("rules", "classify")

from .errors import (
    BudgetExceededError,
    CapExceededError,
    DimensionMismatchError,
    GsverifyError,
    NotTopsOnlyError,
    RuleParseError,
    UnknownLemmaError,
)
from .prefs import (
    Alternative,
    Preference,
    PreferenceDomain,
    Profile,
    TopsProfile,
    alternative_index,
    alternative_name,
    decode_preference,
    encode_preference,
    enumerate_preferences,
    enumerate_profiles,
    is_minimally_rich,
    preferences_with_top,
    profile_from_code,
    satisfies_property_t_star,
)
from .constructions import (
    CensusReport,
    CounterexampleCertificate,
    VerificationReport,
    census,
    coalesce,
    enumerate_tops_only_rules,
    majority_counterexample,
    restrict,
    rule_space_size,
    sample_efficient_tops_tables,
    verify_lemma,
)

# the object layer's public names -> their lazy submodule, imported on first
# access; a string per submodule compiles to one constant
_HOME = dict.fromkeys("""
    BordaLexRule ConstantRule DictatorRule FullTableRule MajorityLexRule
    ManipulationWitness Rule TopsTableRule as_full_table as_tops_table
    efficient_via_tops extensionally_equal find_dictator find_efficiency_violation
    find_manipulation find_tops_only_violation find_unanimity_violation
    is_efficient is_strategy_proof is_tops_only is_unanimous parse_rule
""".split(), "rules") | dict.fromkeys("""
    ClassificationSummary ProfileClassification Verdict at_least_as_dictatorial
    at_least_as_manipulable bitset_codes bitset_to_hex check_duality classify_all
    classify_profile dictatorial_profile_count find_dictatorial_violation
    find_profile_manipulation hex_to_bitset is_dictatorial_profile
    is_manipulable_profile manipulable_profile_count remark_dictatorial_maximal
    remark_strategyproof_minimal
""".split(), "classify")
__all__ = [name for name in globals() if not name.startswith("_")] + [*_HOME]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)  # later reads skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
