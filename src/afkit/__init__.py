"""Ambiguity-function estimation toolkit.

Estimates the ambiguity function of a sampled non-stationary process by
hard-thresholding its empirical ambiguity function, provides closed-form
moment formulas as analytic oracles, measures the spread of the estimated
surface, and reproduces MSE/spread benchmarks by seeded Monte Carlo.
"""

from .bench import ESTIMATORS, EstimatorStats, MCConfig, MCReport, derive_trial_seed, mse_against_naf, run_bench
from .emaf import AmbiguityGrid, compute_emaf, standardize, to_db
from .moments import (
    MomentTriple,
    NAFReference,
    SpectrumTable,
    l_value,
    ma_analytic_autocorr,
    ma_analytic_spectrum,
    ma_dual_time_table,
    naf_for_process,
    prop1_moments,
    prop2_moments,
    prop3_moments,
    um_modulation_spectrum,
    underspread_relation,
    underspread_variance,
    variance_from_af,
)
from .sigcore import (
    DEFAULT_MA_WEIGHTS,
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    analytic_signal,
    dirichlet,
    generate,
)
from .spread import SpreadReport, indicator, lag_band, total_spread
from .thresholding import (
    RegionPartition,
    ThresholdConfig,
    bias_correct,
    lbteaf,
    lteaf,
    make_partition,
    teaf,
    threshold_level,
)

__version__ = "0.1.0"
