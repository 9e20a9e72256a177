"""Pooled-block unit root tests robust to slowly varying trends.

The statistics pool many overlapping blocks of the series, which
filters out an unknown deterministic trend without estimating it.  Two
variants are provided: a small-b test with a standard normal null
(``tau_sb``) and a fixed-b test with simulated critical values and a
variance-profile time transformation for heteroskedasticity
(``tau_fb``), plus pre-whitened versions of both, reference tests (ADF,
DF-GLS, Enders-Lee), and a deterministic Monte Carlo harness.
"""

__version__ = "0.1.0"

from .core import (
    BadBlocklength,
    BlockScheme,
    DegenerateResiduals,
    DegenerateSeries,
    LagTooLarge,
    ProfileDegenerate,
    RankDeficient,
    RngStream,
    SchemeInfeasible,
    UrblockError,
)
from .pooled import BlockStats, PooledFit, block_stats, pooled_fit
from .nuisance import (
    VarianceProfile,
    kappa2_hat,
    sigma2_hat,
    time_transform,
    variance_profile,
)
from .prewhiten import PrewhitenFit, fit_prewhiten, schwert_pmax, select_lag_bic
from .limits import (
    CritTable,
    build_crit_table,
    default_crit_table,
    simulate_fb_statistic,
    simulate_sb_local_power,
)
from .testkit import LagSpec, TestOutcome, TestSpec, run_test, tau_fb, tau_sb, v_factor
from .baselines import BaselineSpec, adf, df_gls, enders_lee, run_baseline
from .mc import (
    DgpSpec,
    ErrorSpec,
    ExperimentResult,
    TrendSpec,
    VarianceSpec,
    emit_table,
    parse_test_id,
    run_config,
    run_experiment,
    simulate_dgp,
    trend_value,
)

__all__ = [
    "__version__",
    # errors
    "UrblockError",
    "SchemeInfeasible",
    "RankDeficient",
    "BadBlocklength",
    "DegenerateSeries",
    "DegenerateResiduals",
    "ProfileDegenerate",
    "LagTooLarge",
    # core types
    "BlockScheme",
    "RngStream",
    # pooled statistics
    "BlockStats",
    "PooledFit",
    "block_stats",
    "pooled_fit",
    # nuisance estimation
    "VarianceProfile",
    "sigma2_hat",
    "kappa2_hat",
    "variance_profile",
    "time_transform",
    # pre-whitening
    "PrewhitenFit",
    "fit_prewhiten",
    "select_lag_bic",
    "schwert_pmax",
    # limit distributions
    "CritTable",
    "build_crit_table",
    "default_crit_table",
    "simulate_fb_statistic",
    "simulate_sb_local_power",
    # tests
    "LagSpec",
    "TestSpec",
    "TestOutcome",
    "tau_sb",
    "tau_fb",
    "run_test",
    "v_factor",
    "BaselineSpec",
    "adf",
    "df_gls",
    "enders_lee",
    "run_baseline",
    # Monte Carlo
    "TrendSpec",
    "ErrorSpec",
    "VarianceSpec",
    "DgpSpec",
    "ExperimentResult",
    "trend_value",
    "simulate_dgp",
    "run_experiment",
    "run_config",
    "parse_test_id",
    "emit_table",
]
