"""Gradient-boosted CNR category models, baselines, metrics, serialization."""

from .gbm import (
    GbmHyperParams,
    GbmModel,
    ModelFormatError,
    SchemaMismatchError,
    Tree,
    baseline_majority,
    load_model,
    predict_labels,
    predict_proba,
    predict_value,
    save_model,
    train_gbm,
    train_regressor,
)
from .metrics import (
    EvalReport,
    confusion_matrix,
    eval_regressor,
    evaluate_classifier,
    report_from_confusion,
)

__all__ = [
    "GbmHyperParams",
    "GbmModel",
    "ModelFormatError",
    "SchemaMismatchError",
    "Tree",
    "baseline_majority",
    "load_model",
    "predict_labels",
    "predict_proba",
    "predict_value",
    "save_model",
    "train_gbm",
    "train_regressor",
    "EvalReport",
    "confusion_matrix",
    "eval_regressor",
    "evaluate_classifier",
    "report_from_confusion",
]
