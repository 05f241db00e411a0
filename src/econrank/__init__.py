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
"""

from .abm import (
    AbmParams,
    Ensemble,
    SweepConfig,
    fit_model_regression,
    gci_theoretical,
    simulate_country,
    sweep,
)
from .panel import (
    BalancedPanel,
    IndicatorPanel,
    balanced_subset,
    growth_rate,
    load_alias_map,
    load_panel,
    serialize_panel,
)
from .rankdyn import (
    LaplaceFit,
    RankChangeSample,
    empirical_pdf,
    exceedance_probability,
    fit_laplace_mle,
    laplace_density,
    rank_changes,
    rank_snapshot,
    sample_discrete_laplace,
)
from .xsection import (
    LinearFit,
    PowerLawFit,
    TTestResult,
    fit_power_law,
    ols_linear,
    relative_competitiveness,
    split_by_sign,
    two_sample_t,
)

__version__ = "0.1.0"

__all__ = [
    "AbmParams",
    "BalancedPanel",
    "Ensemble",
    "IndicatorPanel",
    "LaplaceFit",
    "LinearFit",
    "PowerLawFit",
    "RankChangeSample",
    "SweepConfig",
    "TTestResult",
    "balanced_subset",
    "empirical_pdf",
    "exceedance_probability",
    "fit_laplace_mle",
    "fit_model_regression",
    "fit_power_law",
    "gci_theoretical",
    "growth_rate",
    "laplace_density",
    "load_alias_map",
    "load_panel",
    "ols_linear",
    "rank_changes",
    "rank_snapshot",
    "relative_competitiveness",
    "sample_discrete_laplace",
    "serialize_panel",
    "simulate_country",
    "split_by_sign",
    "sweep",
    "two_sample_t",
    "__version__",
]
