"""Weighted geometric mean summability diagnostics for positive
sequences, with an intuitionistic fuzzy number aggregation layer.

`import gmtauber` loads no submodule, and so not numpy: each public
name below is imported from its submodule on first access (PEP 562).
The `gmt` entry in `gmtauber.__main__` relies on this to set numpy's
thread environment before numpy loads.
"""

import importlib

_EXPORTS = {
    "mcore": (
        "LogReal", "MTolerance", "TailWindow", "Verdict", "mabs", "mdist",
        "mdelta", "star_converges_to", "is_mstar_bounded",
    ),
    "weights": (
        "WeightSequence", "LambdaGrid", "SvaPlusEstimate", "lambda_index",
        "partial_sum", "sva_plus_estimate",
    ),
    "gmean": (
        "weighted_geo_means", "gbar_limit_estimate", "decomposition_identity_check",
    ),
    "tauber": (
        "TauberReport", "ReportThresholds", "slow_oscillation_estimate",
        "tauber_con1_estimate", "tauber_con2_estimate", "landau_estimates",
        "recoverability_report",
    ),
    "ifn": (
        "IFN", "EpsilonIFN", "PartialOrder", "AdditionLimitOutcome",
        "IFNTauberReport", "total_order_cmp", "partial_order_cmp", "add",
        "subtract", "multiply", "scalar_mul", "power", "in_addition_region",
        "addition_limit_check", "zhangxu_limit_check",
        "zhangxu_limit_check_sampled", "oplus_convergence_check",
        "otimes_convergence_check", "ifwa_means", "ifwg_means",
        "np_oplus_verdict", "gp_otimes_verdict", "ifn_tauber_report",
    ),
    "generators": ("generate", "generator_kind", "list_generators"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # `gmtauber.mcore` after a bare `import gmtauber`
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
