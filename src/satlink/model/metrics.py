"""Classifier and regressor evaluation over the four CNR categories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..ingest import CnrCategory, FeatureMatrix
from .gbm import GbmModel, N_CATEGORIES, predict_labels, predict_value


@dataclass
class EvalReport:
    """Confusion matrix (rows = actual, columns = predicted) and the
    derived rates.  Regression errors are attached when relevant."""

    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    weighted_f1: float
    macro_f1: float
    accuracy: float
    n_rows: int
    mse_db2: Optional[float] = None
    mae_db: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "confusion": self.confusion.tolist(),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "weighted_f1": self.weighted_f1,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
            "n_rows": self.n_rows,
        }
        if self.mse_db2 is not None:
            out["mse_db2"] = self.mse_db2
        if self.mae_db is not None:
            out["mae_db"] = self.mae_db
        return out

    def to_text(self) -> str:
        names = [c.label for c in CnrCategory]
        width = max(len(n) for n in names)
        lines = [
            f"{'':{width}}  " + "  ".join(f"{n:>8}" for n in names) + "   precision   recall       f1"
        ]
        for i, name in enumerate(names):
            cells = "  ".join(f"{int(v):>8}" for v in self.confusion[i])
            lines.append(
                f"{name:{width}}  {cells}   {self.precision[i]:9.4f}   {self.recall[i]:6.4f}   {self.f1[i]:6.4f}"
            )
        lines.append(
            f"rows={self.n_rows}  accuracy={self.accuracy:.4f}  "
            f"weighted_f1={self.weighted_f1:.4f}  macro_f1={self.macro_f1:.4f}"
        )
        if self.mse_db2 is not None:
            lines.append(f"mse={self.mse_db2:.4f} dB^2  mae={self.mae_db:.4f} dB")
        return "\n".join(lines)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """4x4 count matrix with actual categories on rows."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    flat = y_true * N_CATEGORIES + y_pred
    return np.bincount(flat, minlength=N_CATEGORIES * N_CATEGORIES).reshape(
        N_CATEGORIES, N_CATEGORIES
    )


def report_from_confusion(
    confusion: np.ndarray,
    mse_db2: Optional[float] = None,
    mae_db: Optional[float] = None,
) -> EvalReport:
    """Per-class precision/recall/F1 plus the support-weighted and macro
    averages.

    A class with zero predicted and zero actual positives gets F1 = 0; the
    weighted average counts only actual support, so categories absent from
    the evaluation rows contribute nothing to it.  The macro average is the
    plain mean over all four categories.
    """
    cm = np.asarray(confusion, dtype=np.int64)
    if cm.shape != (N_CATEGORIES, N_CATEGORIES) or (cm < 0).any():
        raise ValueError(f"confusion matrix must be non-negative {N_CATEGORIES}x{N_CATEGORIES}")
    total = int(cm.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(cm).astype(float)
    support = cm.sum(axis=1).astype(float)
    predicted = cm.sum(axis=0).astype(float)
    precision = np.divide(tp, predicted, out=np.zeros(N_CATEGORIES), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(N_CATEGORIES), where=support > 0)
    pr_sum = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr_sum, out=np.zeros(N_CATEGORIES), where=pr_sum > 0)
    return EvalReport(
        confusion=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        weighted_f1=float((support / total * f1).sum()),
        macro_f1=float(f1.mean()),
        accuracy=float(tp.sum() / total),
        n_rows=total,
        mse_db2=mse_db2,
        mae_db=mae_db,
    )


def evaluate_classifier(model: GbmModel, test: FeatureMatrix) -> EvalReport:
    """Score a classifier against labeled rows."""
    if test.n_rows == 0:
        raise ValueError("evaluation matrix is empty")
    if test.y is None:
        raise ValueError("evaluation matrix carries no labels")
    predictions = predict_labels(model, test)
    return report_from_confusion(confusion_matrix(test.y, predictions))


def eval_regressor(model: GbmModel, test: FeatureMatrix) -> tuple[float, float]:
    """(MSE in dB^2, MAE in dB) of the regressor on labeled rows."""
    if test.n_rows == 0:
        raise ValueError("evaluation matrix is empty")
    if test.y_cnr_db is None:
        raise ValueError("evaluation matrix carries no regression target")
    predictions = predict_value(model, test)
    err = predictions - test.y_cnr_db
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))
