"""Energy-detection spectrum sensing analytics over F composite fading.

Exact false-alarm/detection probabilities, fading-averaged performance via
confluent hypergeometric series, collaborative fusion and square-law
selection, ROC and AUC analytics, channel entropies, and a Monte Carlo
oracle that simulates the detector physics end to end.
"""

from .auc import auc_average, auc_instantaneous
from .detection import (
    DetectorConfig,
    RocCurve,
    SeriesControl,
    average_pd,
    average_pd_detail,
    average_pd_quadrature,
    collaborative_pd,
    pd_awgn,
    pfa,
    roc_curve,
    sls_average_pd,
    sls_pfa,
    threshold_for_pfa,
    truncation_bound,
)
from .entropy import (
    EntropyReport,
    FittedEncoders,
    cross_entropy_nakagami,
    cross_entropy_rayleigh,
    entropy_report,
    fit_nakagami_mle,
    mean_log_snr,
    nakagami_projection,
    shannon_entropy,
)
from .fading import (
    FadingParams,
    db_to_linear,
    envelope_pdf,
    linear_to_db,
    sample_snr,
    snr_pdf,
)
from .montecarlo import (
    SimConfig,
    SimResult,
    philox_stream,
    sample_statistic,
    simulate_auc,
    simulate_average_pd,
    simulate_fusion,
    simulate_sls,
)
from .special_fn import (
    ConvergenceError,
    digamma,
    ln_beta,
    marcum_q,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "ConvergenceError", "digamma", "ln_beta", "marcum_q",
    # fading channel
    "FadingParams", "db_to_linear", "linear_to_db", "snr_pdf", "envelope_pdf", "sample_snr",
    # detection
    "DetectorConfig", "SeriesControl", "RocCurve", "pfa", "threshold_for_pfa",
    "pd_awgn", "average_pd", "average_pd_detail", "average_pd_quadrature",
    "truncation_bound", "collaborative_pd", "sls_pfa", "sls_average_pd",
    "roc_curve",
    # auc
    "auc_instantaneous", "auc_average",
    # entropy
    "EntropyReport", "FittedEncoders", "shannon_entropy", "mean_log_snr",
    "cross_entropy_rayleigh", "cross_entropy_nakagami", "fit_nakagami_mle",
    "nakagami_projection", "entropy_report",
    # monte carlo
    "SimConfig", "SimResult", "philox_stream", "sample_statistic",
    "simulate_average_pd", "simulate_fusion", "simulate_sls", "simulate_auc",
]
