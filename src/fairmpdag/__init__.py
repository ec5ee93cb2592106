"""Interventional fairness on partially known causal graphs.

Graph machinery (PDAG/CPDAG/MPDAG representation, Meek-rule closure,
partial causal ordering, effect identification, ancestral relations),
ground-truth structural models, conditional-Gaussian interventional
generation, and MMD-penalized fair training with an experiment harness.
"""

from .ancestry import (
    AncestralRelation,
    ancestral_relations,
    critical_sets,
    definite_nondescendants,
)
from .causal_ident import (
    IdentificationFormula,
    NotIdentifiableError,
    enumerate_valid_orientations,
    identification_formula,
    is_identifiable,
    pco,
)
from .density_gen import (
    BucketConditional,
    fit_bucket_conditionals,
    generate_interventional,
    models_to_json,
)
from .fair_train import (
    EvalRecord,
    FairPredictor,
    InterventionalSet,
    TrainConfig,
    Variant,
    admissible_intervention_values,
    evaluate,
    feature_set,
    median_bandwidth,
    mmd2,
    train_predictor,
)
from .graph_core import (
    DirectedCycleError,
    GraphError,
    GraphParseError,
    Pdag,
    bucket_decomposition,
    parents,
    parse_graph,
)
from .harness import ExperimentConfig, GraphSetting, build_case, run_experiment
from .meek_engine import (
    BackgroundKnowledgeConflict,
    augment_with_prediction,
    construct_mpdag,
    cpdag_from_dag,
    meek_closure,
    parse_background_knowledge,
    pattern_of_dag,
)
from .scm_lab import (
    Dataset,
    Scm,
    child_rng,
    derive_seed,
    random_er_dag,
    random_linear_scm,
    random_nonlinear_scm,
    sample_interventional_truth,
    sample_observational,
)

__all__ = [name for name in dir() if not name.startswith("_")]
