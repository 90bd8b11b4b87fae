"""Confusion matrices and agreement summaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banffscore.errors import EmptyMatrix, GradeOutOfRange
from banffscore.evaluation import (
    ConfusionMatrix,
    accumulate,
    confusion_to_csv,
    summarize,
    summary_to_dict,
)
from banffscore.scoring import Unscorable

from oracles import weighted_kappa_direct


def matrix_from(cells, indicator="g", excluded=0):
    return ConfusionMatrix(
        indicator=indicator, cells=tuple(tuple(row) for row in cells), excluded=excluded
    )


class TestAccumulate:
    def test_all_agreeing_at_zero(self):
        cm = accumulate([(0, 0)] * 12, "g")
        assert cm.cells[0][0] == 12
        assert cm.n_sections == 12
        assert sum(sum(row) for row in cm.cells) == 12

    def test_row_is_expert_column_is_predicted(self):
        cm = accumulate([(1, 1), (0, 1), (0, 0)], "ptc")
        assert cm.cells[1][1] == 1
        assert cm.cells[1][0] == 1  # expert said 1, model predicted 0
        assert cm.cells[0][0] == 1
        assert cm.cells[0][1] == 0

    def test_unscorable_and_absent_pairs_excluded(self):
        cm = accumulate([(Unscorable("no arteries"), 2), (1, None), (2, 2)], "v")
        assert cm.excluded == 2
        assert cm.n_sections == 1
        assert cm.cells[2][2] == 1

    def test_out_of_range_grade_rejected(self):
        with pytest.raises(GradeOutOfRange):
            accumulate([(4, 0)], "g")

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60
        ),
        cut=st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_fold_is_partition_independent(self, pairs, cut):
        cut = cut % len(pairs)
        whole = accumulate(pairs, "g")
        parts = [accumulate(pairs[:cut], "g"), accumulate(pairs[cut:], "g")]
        summed = np.add(*(np.asarray(m.cells) for m in parts))
        assert summed.tolist() == [list(row) for row in whole.cells]
        assert sum(m.excluded for m in parts) == whole.excluded
        assert whole.n_sections == len(pairs)


class TestSummarize:
    def test_perfect_agreement_identity(self):
        cm = matrix_from([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0]])
        summary = summarize(cm)
        assert summary.exact_agreement == 1.0
        assert summary.quadratic_weighted_kappa == 1.0
        assert summary.within_one_agreement == 1.0

    def test_all_mass_off_by_one(self):
        cm = matrix_from([[0, 0, 0, 0], [5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        summary = summarize(cm)
        assert summary.exact_agreement == 0.0
        assert summary.within_one_agreement == 1.0

    def test_per_grade_recall(self):
        cm = matrix_from([[2, 2, 0, 0], [0, 4, 0, 0], [0, 0, 0, 0], [0, 0, 1, 3]])
        summary = summarize(cm)
        assert summary.per_grade_recall[0] == 0.5
        assert summary.per_grade_recall[1] == 1.0
        assert summary.per_grade_recall[2] is None  # empty expert row
        assert summary.per_grade_recall[3] == 0.75

    def test_degenerate_single_cell_matrix(self):
        cm = matrix_from([[7, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert summarize(cm).quadratic_weighted_kappa == 1.0

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyMatrix):
            summarize(matrix_from([[0] * 4] * 4))

    def test_kappa_matches_independent_formulation(self):
        rng = np.random.default_rng(314)
        for _ in range(200):
            cells = rng.integers(0, 25, size=(4, 4)).tolist()
            if sum(map(sum, cells)) == 0:
                continue
            got = summarize(matrix_from(cells)).quadratic_weighted_kappa
            assert got == pytest.approx(weighted_kappa_direct(cells), abs=1e-12)

    def test_transpose_preserves_exact_agreement(self):
        rng = np.random.default_rng(159)
        for _ in range(50):
            cells = rng.integers(0, 10, size=(4, 4))
            if cells.sum() == 0:
                continue
            direct = summarize(matrix_from(cells.tolist()))
            swapped = summarize(matrix_from(cells.T.tolist()))
            assert direct.exact_agreement == swapped.exact_agreement
            assert direct.quadratic_weighted_kappa == pytest.approx(
                swapped.quadratic_weighted_kappa, abs=1e-12
            )


class TestEmission:
    def test_csv_layout(self):
        cm = matrix_from([[12, 0, 0, 0], [1, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], excluded=2)
        text = confusion_to_csv(cm).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "expert\\predicted,0,1,2,3"
        assert lines[1] == "0,12,0,0,0"
        assert lines[2] == "1,1,3,0,0"
        assert lines[-1] == "excluded,2"

    def test_csv_comment_header(self):
        cm = accumulate([(0, 0)], "g")
        text = confusion_to_csv(cm, comment="tool v0").decode()
        assert text.startswith("# tool v0\n")

    def test_summary_dict_with_and_without_stats(self):
        cm = accumulate([(1, 1), (Unscorable("x"), 0)], "ptc")
        doc = summary_to_dict(cm, summarize(cm))
        assert doc["included"] == 1 and doc["excluded"] == 1
        assert doc["exact_agreement"] == 1.0
        empty = accumulate([(None, 1)], "ptc")
        doc = summary_to_dict(empty, None)
        assert doc["exact_agreement"] is None
        assert doc["excluded"] == 1
