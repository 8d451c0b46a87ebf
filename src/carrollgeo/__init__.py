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
    regularity_probe,
    volume_density,
)
from .geodesics import (
    GeodesicState,
    IntegratorConfig,
    NullShootSpec,
    Trajectory,
    carroll_charge,
    integrate,
    integrate_small_gauge,
    null_residual,
    printed_spatial_acceleration,
    printed_temporal_acceleration,
    shoot_null,
    unit_direction,
)
from .linearize import (
    LinearizedCocycle,
    TransitionAtlas,
    linearize,
    moebius_transition_atlas,
    shift_transitions,
    synthetic_circle_atlas,
)
from .scenarios import Scenario, catalog_names, load

__version__ = "0.1.0"
