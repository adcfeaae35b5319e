"""Nonlinear Lebesgue-style spaces of metric-space-valued mappings.

Mappings from a finite measure space into a metric target, compared in
weighted ``p``-mean distance; curves of such mappings with metric
derivatives, length/energy functionals, geodesics, curvature-sign
transfer, atomwise transport decompositions, log-map speed fields,
jump-curve variation, and Skorokhod-style warping bounds — plus the
deterministic experiment suites and CLI that certify the lot.
"""

from types import ModuleType as _ModuleType

from .config import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    base_space_from_config,
    build_config,
    load_config_file,
)
from .curves import (
    SampledCurve,
    SkorokhodBounds,
    StepCurve,
    VariationMeasure,
    energy,
    metric_derivative,
    skorokhod_distance,
    skorokhod_distances,
    variation_measure,
    variations,
)
from .errors import (
    ConfigError,
    GeodesicError,
    NlspError,
    SpaceMismatchError,
    UnsupportedOperationError,
    ValidationError,
)
from .geometry import (
    GeodesicSweep,
    LpGeodesic,
    constant_speed_residual,
    curvature_comparison_suite,
    draw_geodesic_sweep,
    geodesic_sweep,
    lp_geodesic,
    mapping_comparison_residual,
)
from .mappings import (
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    MetricMapping,
    ProductGridMapping,
    TimeGrid,
    atom_distances,
    check_p,
    constant_family,
    constant_in_time,
    d_p,
    product_lp_norm,
    uniform_grid,
    uniform_space,
)
from .rng import suite_key, trial_rng
from .sections import (
    CurveOfMappings,
    D_pp,
    MappingOfCurves,
    d_pp,
    sec_atom,
    sec_atom_inverse,
    sec_time,
    sec_time_inverse,
    transpose,
    transpose_inverse,
)
from .speed import (
    SpeedField,
    batch_speeds,
    bundle_norm,
    bundle_norms,
    compute_speed,
    speed_identity_residual,
    tangent_norms,
)
from .suites import (
    DEFAULT_TREE_EDGES,
    SmoothLpPaths,
    SuiteResult,
    decay_order,
    default_equality_tol,
    default_tree,
    map_trials,
    run_all,
    run_counterexample,
    run_curvature,
    run_fubini,
    run_geodesic,
    run_length,
    run_skorokhod,
    run_speed,
    run_transport,
    sample_smooth_paths,
)
from .targets import (
    Euclidean,
    MetricTree,
    Spd,
    Sphere,
    TargetSpace,
    make_target,
)
from .transport import (
    BVTransportDecomposition,
    CounterexampleReport,
    TransportDecomposition,
    batch_variation_residuals,
    counterexample_curve,
    counterexample_family,
    counterexample_p1,
    decompose_ac,
    decompose_bv,
    derivative_identity_residual,
    derivative_identity_residuals,
    variation_identity_residual,
)

__version__ = "0.1.0"

#: Every public name imported above; the submodules themselves stay out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
