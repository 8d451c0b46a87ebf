"""Degenerate metrics on scaling bundles: connections, assembled
non-degenerate metrics, geodesic flow and bundle linearization."""

from .errors import (
    CarrollError,
    ConstructionError,
    ContractViolation,
    DomainError,
    NumericError,
)
from .geometry import (
    Atlas,
    Chart,
    ChartTransition,
    DegenerateMetric,
    FiberRescaling,
    Point,
    TangentVector,
    VectorField,
    basis_vector,
    euler,
    euler_field,
    euler_weight,
    killing_residual,
    lie_derivative_metric,
    metric_eval,
    tangent_lift,
    vertical_lift,
)
from .connection import (
    ConnectionOneForm,
    GaugeField,
    PartitionOfUnity,
    connection_from_partition,
    curvature,
    projector,
    split,
    trivial_connection,
)
from .kaluza import (
    KKMetric,
    christoffel_closed,
    christoffel_numeric,
    closed_form_deviation,
    covariant_metric_derivative,
    divergence,
    divergence_expanded,
    regularity_probe,
    volume_density,
)
from .geodesics import (
    GeodesicState,
    IntegratorConfig,
    NullShootSpec,
    Trajectory,
    carroll_charge,
    formal_temporal_solution,
    integrate,
    integrate_small_gauge,
    log_time,
    null_residual,
    printed_spatial_acceleration,
    printed_temporal_acceleration,
    shoot_null,
    unit_direction,
)
from .linearize import (
    LinearizedCocycle,
    TransitionAtlas,
    embed_section_diffeo,
    embed_section_diffeo_inverse,
    linearize,
    moebius_transition_atlas,
    shift_transitions,
    synthetic_circle_atlas,
)
from .scenarios import Scenario, catalog_names, load

__version__ = "0.1.0"
