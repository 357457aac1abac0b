"""Transport-map representations of parametrised density families.

Construction: a boundary collar rearrangement composed with an interior
flow coupling, verified by pushforward checks and uniform parameter-
derivative probes; obstruction diagnostics via 1D sup-Wasserstein ratios
and observable-average smoothness.
"""

__version__ = "0.1.0"

from .collar import CollarMap, Cutoff, build_collar_map
from .density import (
    AssumptionReport,
    DecayEnvelope,
    DensityFamily,
    MassTable,
    ReferenceDensity,
    builtin_family,
    check_decay_assumptions,
    family_from_expression,
    library_envelopes,
    make_envelope,
    make_reference,
)
from .diagnostics import (
    ExpectationReport,
    ObstructionReport,
    expectation_curve,
    lipschitz_obstruction,
    w_infinity_1d,
)
from .errors import (
    ConfigurationError,
    DegeneracyError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    InfeasibilityError,
    IntegrationError,
    MassMismatchError,
    MoserTransportError,
    ResolutionError,
    SolverError,
)
from .expressions import ExpressionAst, parse_density_expression
from .geometry import (
    Domain,
    Grid,
    cylinder_grid,
    default_grid,
    interval_grid,
    make_domain,
    torus_grid,
)
from .moser import (
    MoserMap,
    PotentialField,
    VelocityProvider,
    assemble_rhs,
    integrate_flow,
    moser_map_from_values,
    solve_neumann_poisson,
)
from .transport import (
    CkReport,
    FloorScanReport,
    QuantileTransport,
    RandomMapSample,
    TransportFamily,
    binned_target_2d,
    build_representation,
    ck_floor_scan,
    estimate_uniform_Ck,
    make_x_grid,
    pushforward_density_1d,
    pushforward_histogram_2d,
    sample_random_maps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
