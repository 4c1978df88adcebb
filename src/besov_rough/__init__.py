"""Besov-scale rough path analysis on discretely sampled paths."""

from .errors import NonContractionError, RegimeError
from .grid import (
    GridFormatError,
    GridPath,
    TwoParamField,
    UniformGrid,
    delta,
    load_path_csv,
    save_path_csv,
)
from .norms import (
    BesovParams,
    EndpointModulus,
    besov_metric,
    besov_seminorm,
    oscillation_variation,
    pvariation,
    two_param_norm,
    delta2_norm,
)
from .sewing import SewingInput, SewingResult, dyadic_riemann, rate_certificate, sew
from .young import (
    VectorField,
    YoungRegime,
    young_integral,
    young_ode_solve,
)
from .rough import (
    RoughPath,
    TensorElement,
    brownian_lift,
    canonical_lift,
    chen_residual,
    dilate,
    fbm_path,
    geometric_lift,
    homogeneous_norm,
    lyons_extend,
    rough_besov_norm,
    rough_metric,
    tensor_exp,
    tensor_inv,
    tensor_mul,
)
from .controlled import (
    ControlledPath,
    compose_controlled,
    controlled_distance,
    controlled_norm,
    davie_residual,
    rde_solve,
    rough_integral,
)
from .stochlab import (
    DiscreteMartingale,
    bm_besov_statistic,
    fbm_besov_statistic,
    paraproduct,
    pprod_bdg_experiment,
    square_function,
)

__version__ = "0.1.0"
