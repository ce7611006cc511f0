"""Two-photon Bell-experiment toolkit.

Exact Born-rule probabilities for entangled photon pairs, Minkowski
scenario geometry, spacetime-point-relativized chances, locality
condition checkers, local hidden-variable baselines and a reproducible
Monte Carlo harness.
"""

from .quantum import (
    AnalyzerAngle,
    JointDistribution,
    OutcomeLabel,
    PhotonPairState,
    ProbabilityPair,
    SingleWingState,
    UndefinedConditionalError,
    Wing,
    as_angle,
    bell_phi_plus,
    born_conditional,
    born_joint,
    born_marginal,
    product_polarized,
    reduced_state,
)
from .spacetime import (
    CausalRelation,
    EventRecord,
    Outcome,
    Preparation,
    Scenario,
    Setting,
    SpacetimePoint,
    backward_cone_contents,
    causal_relation,
    load_scenario,
    standard_scenario,
)
from .chance import (
    CausalVerdict,
    CausalVerdictKind,
    ChanceValue,
    ForceOutcome,
    Intervention,
    JointTarget,
    NoChanceDefinedError,
    OutcomeTarget,
    ReferenceClass,
    ReplacePreparation,
    SenselessInterventionError,
    SetAngle,
    apply_intervention,
    causally_depends,
    chance_at,
    estimated_chance,
    joint_vertical,
    local_causality_readings,
    reference_class_at,
    set_angle_intervention,
    vertical_outcome,
)
from .locality import (
    ConditionReport,
    ProbabilityModel,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    chsh,
    default_angle_grid,
    no_signalling_deviation,
    quantum_model,
    signalling_fixture_model,
)
from .hidden_variables import (
    CHSH_MINIMUM,
    DeterministicStrategy,
    LhvModel,
    all_strategies,
    builtin_vector_model,
    deterministic_chsh_maximum,
    strategy_chsh,
    strategy_model,
)
from .harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    PairSamples,
    ReportBundle,
    RunConfig,
    TrialLog,
    chsh_schedule,
    emit_report,
    empirical_statistics,
    run_trials,
    simulate,
    write_trial_log,
)

__version__ = "0.1.0"
