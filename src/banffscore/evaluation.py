"""Predicted-vs-expert grade comparison: confusion matrices and agreement.

Matrix orientation: rows are the expert grade, columns the predicted grade;
the orientation is written into every emitted file to prevent silent
transposition.  Pairs where either side is unscorable or absent are excluded
from the matrix and counted separately: coercing them to grade 0 would
fabricate agreement on inadequate tissue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import EmptyMatrix, GradeOutOfRange, echo
from .scoring import Unscorable

N_GRADES = 4

GradeLike = Union[int, None, Unscorable]


def _grade_or_none(value: GradeLike) -> Optional[int]:
    if value is None or isinstance(value, Unscorable):
        return None
    if isinstance(value, bool) or value not in (0, 1, 2, 3):
        raise GradeOutOfRange(f"grade {echo(value)} outside 0-3")
    return int(value)


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 grade confusion counts for one indicator plus the excluded-pair count."""

    indicator: str
    cells: Tuple[Tuple[int, ...], ...]  # cells[expert][predicted]
    excluded: int = 0

    @property
    def n_sections(self) -> int:
        return sum(sum(row) for row in self.cells)


def accumulate(pairs: Iterable[Tuple[GradeLike, GradeLike]], indicator: str) -> ConfusionMatrix:
    """Fold (predicted, expert) pairs into a confusion matrix.

    Commutative: summing the cells of the matrices of any partition of the
    pairs gives the same matrix.
    """
    cells = [[0] * N_GRADES for _ in range(N_GRADES)]
    excluded = 0
    for predicted, expert in pairs:
        p = _grade_or_none(predicted)
        e = _grade_or_none(expert)
        if p is None or e is None:
            excluded += 1
            continue
        cells[e][p] += 1
    return ConfusionMatrix(
        indicator=indicator,
        cells=tuple(tuple(row) for row in cells),
        excluded=excluded,
    )


@dataclass(frozen=True)
class AgreementSummary:
    exact_agreement: float
    within_one_agreement: float
    quadratic_weighted_kappa: float
    per_grade_recall: Tuple[Optional[float], ...]


def summarize(cm: ConfusionMatrix) -> AgreementSummary:
    """Exact/within-one agreement, quadratic-weighted kappa, per-grade recall.

    Kappa uses squared-distance disagreement weights normalized by
    (N_GRADES - 1)^2 and chance expectation from the marginals; when the
    expected disagreement is zero (all mass on one agreeing cell) kappa is
    1.0 by convention.  Recall is diagonal over row sum, absent for empty
    rows.
    """
    m = np.asarray(cm.cells, dtype=np.float64)
    n = m.sum()
    if n == 0:
        raise EmptyMatrix(f"{cm.indicator}: no included pairs")
    idx = np.arange(N_GRADES)
    dist = np.abs(idx[:, None] - idx[None, :])
    weights = (dist.astype(np.float64) ** 2) / float((N_GRADES - 1) ** 2)
    exact = float(np.trace(m) / n)
    within_one = float(m[dist <= 1].sum() / n)
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    expected = np.outer(row, col) / n
    observed_disagreement = float((weights * m).sum() / n)
    expected_disagreement = float((weights * expected).sum() / n)
    if expected_disagreement == 0.0:
        kappa = 1.0
    else:
        kappa = 1.0 - observed_disagreement / expected_disagreement
    recall: List[Optional[float]] = []
    for i in range(N_GRADES):
        recall.append(float(m[i, i] / row[i]) if row[i] > 0 else None)
    return AgreementSummary(
        exact_agreement=exact,
        within_one_agreement=within_one,
        quadratic_weighted_kappa=float(kappa),
        per_grade_recall=tuple(recall),
    )


def confusion_to_csv(cm: ConfusionMatrix, comment: Optional[str] = None) -> bytes:
    """CSV with grade-labeled rows/columns and an ``excluded`` footer."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("expert\\predicted," + ",".join(str(i) for i in range(N_GRADES)))
    for grade in range(N_GRADES):
        lines.append(f"{grade}," + ",".join(str(v) for v in cm.cells[grade]))
    lines.append(f"excluded,{cm.excluded}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def summary_to_dict(cm: ConfusionMatrix, summary: Optional[AgreementSummary]) -> dict:
    return {
        "indicator": cm.indicator,
        "orientation": "rows=expert, columns=predicted",
        "included": cm.n_sections,
        "excluded": cm.excluded,
        "cells": [list(row) for row in cm.cells],
        "exact_agreement": summary.exact_agreement if summary else None,
        "within_one_agreement": summary.within_one_agreement if summary else None,
        "quadratic_weighted_kappa": summary.quadratic_weighted_kappa if summary else None,
        "per_grade_recall": list(summary.per_grade_recall) if summary else None,
    }
