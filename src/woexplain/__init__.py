"""Contrastive weight-of-evidence explanations for multi-class classifiers.

Fit class-conditional Gaussian models, then decompose any prediction's
posterior log-odds into a prior term plus exact per-attribute weight-of-
evidence scores, sequenced over nested contrastive hypotheses.
"""

from .contrast import ContrastParams, best_contrast, score_subset
from .core import (
    bayes_decomposition,
    information_value,
    posterior_log_odds,
    prior_log_odds,
    woe,
    woe_chain,
    woe_conditional,
    woe_conditional_many,
)
from .data import (
    Dataset,
    csv_header,
    load_csv,
    load_partition,
    query_oracle,
    write_csv,
)
from .explain import (
    AttributeScore,
    ExplainerParams,
    ExplanationReport,
    ExplanationStep,
    explain,
    report_to_dict,
    score_attributes,
    write_report,
)
from .gaussian import (
    GaussianClassModel,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    posterior,
    predicted_class,
    save_model,
)
from .types import (
    AttributePartition,
    Evidence,
    HypothesisSet,
    as_evidence,
    as_hypothesis,
)
from .validate import InvariantCheck, run_validation

__version__ = "0.1.0"

__all__ = [
    "AttributePartition",
    "AttributeScore",
    "ContrastParams",
    "Dataset",
    "Evidence",
    "ExplainerParams",
    "ExplanationReport",
    "ExplanationStep",
    "GaussianClassModel",
    "HypothesisSet",
    "InvariantCheck",
    "as_evidence",
    "as_hypothesis",
    "bayes_decomposition",
    "best_contrast",
    "csv_header",
    "explain",
    "fit",
    "information_value",
    "load_csv",
    "load_model",
    "load_partition",
    "model_from_dict",
    "model_to_dict",
    "posterior",
    "posterior_log_odds",
    "predicted_class",
    "prior_log_odds",
    "query_oracle",
    "report_to_dict",
    "run_validation",
    "save_model",
    "score_attributes",
    "score_subset",
    "woe",
    "woe_chain",
    "woe_conditional",
    "woe_conditional_many",
    "write_csv",
    "write_report",
]
