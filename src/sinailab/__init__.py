"""sinailab: numerical ergodic theory at desk scale.

Lyapunov spectra via the discrete QR method, SRB/Sinai measure
approximation (Birkhoff clouds and Ulam discretizations), three
metric-entropy estimators (not independent on every cloud; see
sinailab.entropy), dominated-splitting verification,
and parameter sweeps that probe semicontinuity and continuity of the
entropy along explicit map families.
"""

__version__ = "0.1.0"

from .entropy import (
    CrossValidationReport,
    EntropyEstimate,
    combine_estimates,
    cross_validate,
    jacobian_formula_entropy,
    ls_entropy,
    pesin_entropy,
)
from .errors import (
    ConfigError,
    EscapeError,
    SamplingFailureError,
    SinaiLabError,
    SweepAbortError,
    UlamConvergenceError,
    UnsupportedSystemError,
)
from .measures import (
    EmpiricalMeasure,
    TransferMatrix,
    birkhoff_sample,
    bounded_jacobian_check,
    holder_parameter_check,
    ls1_fit,
    ls2_integral,
    split_log_det_integral,
    ulam_matrix,
    ulam_stationary,
    weak_star_distance,
)
from .oseledets import (
    DominationReport,
    LyapunovSpectrum,
    SplittingEstimate,
    benettin_spectrum,
    domination_report,
    estimate_bundles_many,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    continuity_modulus,
    run_sweep,
    usc_check,
)
from .systems import (
    DynamicalSystem,
    FamilyHandle,
    PhaseSpace,
    build_system,
    get_family,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_manneville_pomeau,
    make_standard_skew,
    make_torus_automorphism,
    make_viana,
)

__all__ = [name for name in dir() if not name.startswith("_")]
