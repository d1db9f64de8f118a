"""Distance-based formation control on rigid graphs with a flex agent.

Simulation of the gradient control law (plus leader-augmented variants),
Hessian-based stability analysis at equilibria, and independent oracles that
construct the undesired (degenerate) equilibria of the certified triangle and
tetrahedron topologies.
"""

from .control import (
    EdgeState,
    LeaderSpec,
    balance_residuals,
    edge_states,
    gradient_control,
    leader_spec_from_json,
    potential_value,
)
from .graph import (
    FormationGraph,
    GraphError,
    graph_from_json,
    graph_to_json,
    tetrahedron_flex,
    triangle_flex,
)
from .integrator import (
    IntegrationError,
    PerturbationEvent,
    Trajectory,
    apply_perturbation,
    integrate,
    random_perturbation,
)
from .oracle import (
    CatalogEntry,
    OracleError,
    build_catalog,
    construct_equilibrium,
    desired_equilibrium,
    flex_coincident_equilibrium,
    newton_polish,
    write_catalog,
)
from .potentials import (
    FAMILIES,
    QUADRATIC,
    RATIONAL,
    PotentialDomainError,
    PotentialFamily,
    get_family,
    validate_family,
)
from .stability import (
    EquilibriumClass,
    StabilityReport,
    Witness,
    WitnessNotFoundError,
    analyze,
    assemble_hessian,
    classify,
    verify_angle_inequalities,
)

__version__ = "0.1.0"
