"""Measured versus true total factor productivity for nonmarket production.

The package separates what a sector can actually do (a production
technology and its Hicks-neutral level) from what cost-based statistics
say it does. It provides the measurement conventions used for nonmarket
output, five runnable paradoxes in which measured TFP falls while true
productivity does not, and a growth-accounting pipeline that turns
industry panels into Tornqvist TFP index series.

Public names are imported from their home module on first use (PEP 562),
so ``import pubtfp`` loads no submodule and PyYAML only with the scenario
readers.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name once, under the submodule that defines it; each submodule's
# __all__ reads its entry here
_EXPORTS = {
    "technology": (
        "InputBundle", "FactorPrices", "TechnologyShift", "Technology", "CobbDouglas", "Ces",
        "HomotheticTranslog", "TwoLevelCes", "mrts", "true_tfp",
    ),
    "efficiency": (
        "CostMinResult", "MpssResult", "min_cost_bundle", "allocative_gap", "find_mpss",
        "apply_technical_progress",
    ),
    "measurement": (
        "COST_BASED_VA", "COST_WEIGHTED_INDEX", "DISTORTED_REVENUE", "OutputShare", "OutputMix",
        "PricedOutput", "PricingScheme", "MeasuredTfp", "Proposition1Report",
        "cost_based_value_added", "measured_tfp_cost_based", "unit_costs_from_allocation",
        "cost_weighted_output", "measured_tfp_cost_weighted", "verify_proposition1", "revenue",
        "measured_tfp_revenue",
    ),
    "paradoxes": (
        "EconomyState", "Scenario", "FailedScenario", "ParadoxReport", "ScenarioOutcome",
        "run_paradox_1", "run_paradox_2", "run_paradox_3", "run_paradox_4", "run_paradox_5",
        "run_scenario", "run_all",
    ),
    "accounting": (
        "PanelObservation", "TfpIndexSeries", "SimulationSpec", "deflate", "tornqvist_tfp_growth",
        "build_index", "build_indices", "ingest_panel", "write_panel", "write_indices",
        "simulate_sna_panel",
    ),
    "scenario_io": ("load_scenarios", "load_simulation"),
    "errors": (
        "PubTfpError", "InvalidParameterError", "DomainError", "NoConvergenceError",
        "NoInteriorMpssError", "AlreadyEfficientError", "PricesNotDominatedError",
        "MarkupNotReducedError", "ScenarioError", "PanelSchemaError", "SeriesError",
        "MissingBaseYearError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# a report row's vocabulary; ``report`` checks rows against it without loading the solvers
_PARADOX_IDS = (1, 2, 3, 4, 5)
_CONVENTIONS = ("CostBasedVA", "CostWeightedIndex", "DistortedRevenue")
_WELFARE_DIRECTIONS = ("improved", "unchanged-productivity")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # AttributeError, not KeyError: ``from pubtfp import paradoxes`` falls
    # back to importing the submodule only after hasattr() sees it
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
