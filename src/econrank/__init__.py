"""Country rank dynamics, competitiveness regressions, and a corruption model.

Four analysis layers share one CSV panel format:

- :mod:`econrank.panel` loads and balances country-year indicator data,
- :mod:`econrank.rankdyn` pools windowed rank changes and fits their
  double-exponential decay by maximum likelihood,
- :mod:`econrank.xsection` fits log-log power laws, derives the relative
  competitiveness residual, and compares sign groups,
- :mod:`econrank.abm` simulates the skill-mismatch corruption model and
  sweeps ensembles of synthetic countries.

The :mod:`econrank.cli` module exposes them as the ``econrank`` command.
Submodules and the names below load on first access (PEP 562), so
``import econrank`` loads no numpy.
"""

import importlib
from typing import Any

__version__ = "0.1.0"

# every public name -> the submodule defining it; each submodule maps to itself
_SOURCE = {
    **{m: m for m in ("abm", "cli", "errors", "outputs", "panel", "rankdyn", "xsection")},
    **dict.fromkeys(("AbmParams", "Ensemble", "SweepConfig", "fit_model_regression",
                     "gci_theoretical", "simulate_country", "sweep"), "abm"),
    **dict.fromkeys(("BalancedPanel", "IndicatorPanel", "balanced_subset", "growth_rate",
                     "load_alias_map", "load_panel", "serialize_panel"), "panel"),
    **dict.fromkeys(("LaplaceFit", "RankChangeSample", "empirical_pdf", "exceedance_probability",
                     "fit_laplace_mle", "laplace_density", "rank_changes", "rank_snapshot",
                     "sample_discrete_laplace"), "rankdyn"),
    **dict.fromkeys(("CrossSection", "LinearFit", "PowerLawFit", "TTestResult", "cross_section",
                     "fit_power_law", "ols_linear", "relative_competitiveness", "split_by_sign",
                     "two_sample_t"), "xsection"),
}

__all__ = [*sorted(name for name, module in _SOURCE.items() if name != module), "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    return module if name == _SOURCE[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
