"""Grading rules: band mappings, per-indicator scoring, section pipeline."""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banffscore import ConfigError, MalformedDocument, RunConfig, __version__
from banffscore.errors import IndexMismatch
from banffscore.model import (
    ARTERY,
    DEFAULT_CELL_ALIASES,
    DEFAULT_STRUCTURE_ALIASES,
    GLOMERULUS,
    INDICATORS,
    MONOCYTE,
    PERITUBULAR_CAPILLARY,
    GroundTruthGrades,
    SectionScene,
)
from banffscore.ingest import canonical_json_bytes
from banffscore.scoring import (
    GLOMERULUS_CELL_THRESHOLD,
    GRADE_EDGES,
    GScoreDetail,
    ScoreReport,
    Unscorable,
    _report_doc,
    report_from_dict,
    report_to_dict,
    report_to_json,
    score_g,
    score_ptc,
    score_section,
    score_v,
)
from banffscore.synth import PerturbationSpec, sensitivity_run

from conftest import mk_detection, mk_instance, square
from oracles import g_band, max_count_band


def counts(values):
    return {f"i{k}": v for k, v in enumerate(values)}


class TestScoreG:
    @pytest.mark.parametrize(
        "values,rho,grade",
        [
            ([0, 0, 0, 0, 0], Fraction(0), 0),
            ([5, 0, 0, 0, 0, 0, 0, 0], Fraction(1, 8), 1),
            ([4, 4, 0, 0], Fraction(1, 2), 2),
            ([4, 4, 4, 0, 0], Fraction(3, 5), 3),
            ([3, 3, 3], Fraction(0), 0),  # 3 cells is NOT more than three
            ([4, 0, 0, 0], Fraction(1, 4), 2),  # 1/4 maps to 2, inclusive lower edge
        ],
    )
    def test_examples(self, values, rho, grade):
        detail = score_g(counts(values))
        assert isinstance(detail, GScoreDetail)
        assert detail.inflamed_fraction == rho
        assert detail.grade == grade
        assert detail.n_structures == len(values)

    def test_inflamed_flags(self):
        detail = score_g(counts([5, 3, 4, 0]))
        flags = {iid: inflamed for iid, _, inflamed in detail.per_instance}
        assert flags == {"i0": True, "i1": False, "i2": True, "i3": False}

    def test_no_glomeruli_unscorable(self):
        result = score_g({})
        assert isinstance(result, Unscorable)
        assert result.reason == "no glomeruli"

    def test_band_sweep_matches_piecewise_definition(self):
        for i in range(201):
            values = [4] * i + [0] * (200 - i)
            detail = score_g(counts(values))
            assert detail.inflamed_fraction == Fraction(i, 200)
            assert detail.grade == g_band(i, 200)

    def test_exact_rational_edges(self):
        assert score_g(counts([4] * 50 + [0] * 150)).grade == 2   # exactly 1/4
        assert score_g(counts([4] * 100 + [0] * 100)).grade == 2  # exactly 1/2
        assert score_g(counts([4] * 101 + [0] * 99)).grade == 3
        assert score_g(counts([4] * 49 + [0] * 151)).grade == 1
        assert score_g(counts([4] + [0] * 2)).grade == 2          # 1/3 falls in [1/4, 1/2]


class TestScorePtcAndV:
    @pytest.mark.parametrize(
        "values,max_count,grade",
        [
            ([0, 0, 0], 0, 0),
            ([0, 3, 1], 3, 1),
            ([5], 5, 2),
            ([11], 11, 3),
            ([4], 4, 1),
            ([10, 2], 10, 2),
        ],
    )
    def test_ptc_examples(self, values, max_count, grade):
        detail = score_ptc(counts(values))
        assert detail.max_count == max_count
        assert detail.grade == grade

    @pytest.mark.parametrize(
        "values,max_count,grade",
        [([0, 0], 0, 0), ([1, 0], 1, 1), ([10, 2], 10, 2), ([12], 12, 3)],
    )
    def test_v_examples(self, values, max_count, grade):
        detail = score_v(counts(values))
        assert detail.max_count == max_count
        assert detail.grade == grade

    def test_unscorable_reasons(self):
        assert score_ptc({}).reason == "no peritubular capillaries"
        assert score_v({}).reason == "no arteries"

    def test_band_sweep_matches_piecewise_definition(self):
        for n in range(101):
            assert score_ptc({"only": n}).grade == max_count_band(n)
            assert score_v({"only": n}).grade == max_count_band(n)


class TestGradeEdges:
    """Boundary cases generated from ``GRADE_EDGES``, checked against the
    piecewise definitions in ``oracles``, and the tables against the README."""

    def test_one_field_per_indicator(self):
        assert list(GRADE_EDGES) == list(INDICATORS)
        assert [f.name for f in fields(ScoreReport)] == ["section_id", *INDICATORS, "config"]
        assert [f.name for f in fields(GroundTruthGrades)] == ["section_id", *INDICATORS]

    def test_readme_table_matches(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Grading rules\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", section, re.M)
        assert [(name, kind) for name, kind, _, _ in rows] == list(INDICATORS.items())
        for name, _, _, edges in rows:
            parsed = [(op, Fraction(value)) for op, value in re.findall(r"`(>=?) ([\d/]+)`", edges)]
            assert parsed == list(GRADE_EDGES[name]), name
        statistic = {kind: statistic for _, kind, statistic, _ in rows}[GLOMERULUS]
        assert f"more than {GLOMERULUS_CELL_THRESHOLD} cells" in statistic

    @pytest.mark.parametrize("name,score", [("ptc", score_ptc), ("v", score_v)])
    def test_max_count_edges(self, name, score):
        for _, edge in GRADE_EDGES[name]:
            assert isinstance(edge, int)
            for count in range(max(edge - 1, 0), edge + 2):
                assert score({"only": count}).grade == max_count_band(count), (name, count)

    def test_inflamed_fraction_edges(self):
        for n in range(1, 61):
            for _, edge in GRADE_EDGES["g"]:
                assert isinstance(edge, Fraction)
                at = edge * n
                for inflamed in {at.numerator // at.denominator + k for k in (-1, 0, 1, 2)}:
                    if 0 <= inflamed <= n:
                        detail = score_g(counts([4] * inflamed + [0] * (n - inflamed)))
                        assert detail.grade == g_band(inflamed, n), (n, inflamed)


class TestBandProperties:
    @given(st.integers(0, 500), st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_max_band_monotone_and_in_range(self, count, bump):
        low = score_ptc({"only": count}).grade
        high = score_ptc({"only": count + bump}).grade
        assert low in (0, 1, 2, 3)
        assert high >= low

    @given(st.integers(1, 60), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_fraction_band_monotone_and_in_range(self, den, num):
        num = min(num, den)
        grade = score_g(counts([4] * num + [0] * (den - num))).grade
        assert grade in (0, 1, 2, 3)
        if num < den:
            assert score_g(counts([4] * (num + 1) + [0] * (den - num - 1))).grade >= grade

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=30), st.integers(0, 29))
    @settings(max_examples=150, deadline=None)
    def test_adding_a_detection_never_decreases_any_grade(self, values, pos):
        pos = pos % len(values)
        bumped = list(values)
        bumped[pos] += 1
        assert score_g(counts(bumped)).grade >= score_g(counts(values)).grade
        assert score_ptc(counts(bumped)).grade >= score_ptc(counts(values)).grade
        assert score_v(counts(bumped)).grade >= score_v(counts(values)).grade

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=30), st.integers(0, 29))
    @settings(max_examples=150, deadline=None)
    def test_removing_a_max_type_instance_never_increases_grade(self, values, pos):
        pos = pos % len(values)
        removed = values[:pos] + values[pos + 1:]
        assert score_ptc(counts(removed)).grade <= score_ptc(counts(values)).grade
        assert score_v(counts(removed)).grade <= score_v(counts(values)).grade

    def test_g_can_increase_when_uninflamed_glomerulus_removed(self):
        # The documented asymmetry: omission inflates the inflamed fraction.
        before = score_g(counts([4, 0, 0, 0, 0]))
        after = score_g(counts([4, 0, 0, 0]))
        assert before.grade == 1 and after.grade == 2
        assert after.inflamed_fraction > before.inflamed_fraction


def workflow_demo_scene() -> SectionScene:
    """Eight glomeruli (one with 5 cells), three capillaries (max 3 cells),
    two arteries (0 cells): hand evaluation gives g=1, ptc=1, v=0."""
    instances = []
    detections = []
    for k in range(8):
        instances.append(mk_instance(f"glom-{k}", GLOMERULUS, square(100.0 + 50.0 * k, 100.0, 20.0)))
    for j in range(5):
        detections.append(mk_detection(f"g-cell-{j}", 95.0 + 2.0 * j, 100.0))
    for k in range(3):
        instances.append(
            mk_instance(f"ptc-{k}", PERITUBULAR_CAPILLARY, square(100.0 + 50.0 * k, 300.0, 10.0))
        )
    for j in range(3):
        detections.append(mk_detection(f"p-cell-{j}", 95.0 + 3.0 * j, 300.0))
    for k in range(2):
        instances.append(mk_instance(f"art-{k}", ARTERY, square(100.0 + 80.0 * k, 500.0, 25.0)))
    return SectionScene(section_id="demo", instances=instances, detections=detections)


class TestScoreSection:
    def test_no_detections_grades_all_zero(self):
        scene = SectionScene(
            section_id="quiet",
            instances=[
                mk_instance("g0", GLOMERULUS, square(0.0, 0.0, 5.0)),
                mk_instance("p0", PERITUBULAR_CAPILLARY, square(20.0, 0.0, 5.0)),
                mk_instance("a0", ARTERY, square(40.0, 0.0, 5.0)),
            ],
        )
        report = score_section(scene)
        assert (report.grade("g"), report.grade("ptc"), report.grade("v")) == (0, 0, 0)

    def test_workflow_analog_scene(self):
        report = score_section(workflow_demo_scene())
        assert report.grade("g") == 1
        assert report.grade("ptc") == 1
        assert report.grade("v") == 0
        assert report.ptc.max_count == 3

    def test_removing_inflamed_capillary_zeroes_ptc(self):
        scene = workflow_demo_scene()
        scene.instances = [i for i in scene.instances if i.id != "ptc-0"]
        report = score_section(scene)
        assert report.grade("ptc") == 0
        assert all(count == 0 for _, count in report.ptc.per_instance)

    def test_unscorable_is_a_value_not_an_error(self):
        scene = SectionScene(
            section_id="no-arteries",
            instances=[mk_instance("g0", GLOMERULUS, square(0.0, 0.0, 5.0))],
        )
        report = score_section(scene)
        assert isinstance(report.grade("v"), Unscorable)
        assert isinstance(report.grade("ptc"), Unscorable)
        assert report.grade("g") == 0

    def test_boundary_flip_single_detection_removals(self):
        # Five glomeruli, exactly one holding 4 cells: g = 1; dropping any
        # single cell lands on the "more than three" threshold and g falls to 0.
        instances = [
            mk_instance(f"g{k}", GLOMERULUS, square(100.0 * k, 0.0, 10.0)) for k in range(5)
        ]
        detections = [mk_detection(f"d{j}", 0.0 + j, 0.0) for j in range(4)]
        scene = SectionScene(section_id="edge", instances=instances, detections=detections)
        assert score_section(scene).grade("g") == 1
        for j in range(4):
            reduced = SectionScene(
                section_id="edge",
                instances=instances,
                detections=[d for d in detections if d.id != f"d{j}"],
            )
            assert score_section(reduced).grade("g") == 0

    def test_config_filters_detections(self):
        instances = [mk_instance("g0", GLOMERULUS, square(0.0, 0.0, 10.0))]
        detections = [
            mk_detection("strong", 0.0, 0.0, confidence=0.9),
            mk_detection("weak", 1.0, 0.0, confidence=0.2),
            mk_detection("mono", 2.0, 0.0, kind=MONOCYTE, confidence=0.9),
        ]
        scene = SectionScene(section_id="f", instances=instances, detections=detections)
        default = score_section(scene)
        assert dict((i, c) for i, c, _ in default.g.per_instance) == {"g0": 2}
        lax = score_section(scene, RunConfig(min_confidence=0.0))
        assert lax.g.per_instance[0][1] == 3
        lymph_only = score_section(scene, RunConfig(cell_classes=("lymphocyte",)))
        assert lymph_only.g.per_instance[0][1] == 1

    def test_dedup_wired_through_config(self):
        instances = [mk_instance("g0", GLOMERULUS, square(0.0, 0.0, 10.0))]
        detections = [
            mk_detection("a", 0.0, 0.0, confidence=0.9),
            mk_detection("b", 0.0, 0.0, confidence=0.8),
        ]
        scene = SectionScene(section_id="dd", instances=instances, detections=detections)
        assert score_section(scene).g.per_instance[0][1] == 2
        deduped = score_section(scene, RunConfig(dedup_radius=0.0))
        assert deduped.g.per_instance[0][1] == 1

    def test_purity_repeated_invocations_bit_identical(self):
        scene = workflow_demo_scene()
        first = report_to_json(score_section(scene))
        assert all(report_to_json(score_section(scene)) == first for _ in range(3))

    def test_config_snapshot_embedded(self):
        cfg = RunConfig(min_confidence=0.7, cell_classes=("monocyte",), dedup_radius=2.0)
        report = score_section(workflow_demo_scene(), cfg)
        assert report.config == {
            "tool_version": __version__,
            "min_confidence": 0.7,
            "cell_classes": ["monocyte"],
            "dedup_radius": 2.0,
            "seed": None,
            "structure_aliases": DEFAULT_STRUCTURE_ALIASES,
            "cell_aliases": DEFAULT_CELL_ALIASES,
        }

    def test_config_normalizes_and_checks_its_values(self):
        assert RunConfig(cell_classes=(" Lymphocyte", "", "MONOCYTE ")).cell_classes == (
            "lymphocyte",
            "monocyte",
        )
        for bad in (
            {"min_confidence": 1.5},
            {"min_confidence": float("nan")},
            {"dedup_radius": -1.0},
            {"dedup_radius": float("inf")},
            {"cell_classes": ("lymphocytes",)},
            {"cell_classes": ()},
            {"cell_classes": ("", " ")},
        ):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                RunConfig(**bad)

    def test_scorable_instances_sharing_an_id_raise(self):
        # read_scene rejects such a scene; a library caller can still build one
        scene = SectionScene(
            section_id="twins",
            instances=[
                mk_instance("a", GLOMERULUS, square(0.0, 0.0, 5.0)),
                mk_instance("a", ARTERY, square(20.0, 0.0, 5.0)),
            ],
            detections=[mk_detection("d0", 0.0, 0.0), mk_detection("d1", 20.0, 0.0)],
        )
        with pytest.raises(IndexMismatch, match="^duplicate instance id 'a'$"):
            score_section(scene)
        with pytest.raises(IndexMismatch, match="^duplicate instance id 'a'$"):
            sensitivity_run(scene, PerturbationSpec(detection_fn_prob=0.5), trials=2)


# Instance ids that stress the string encoder and the row templates: quotes,
# backslashes, control, non-ASCII, astral and lone-surrogate characters,
# format specifiers and strings that read as numbers or JSON literals.
REPORT_IDS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['a"b', "back\\slash", '\\"', "\x00\x1f\x7f", "\n\t\r", "caf\u00e9", "\u00ff\u0100",
                     "\U0001d11e", "\ud800", "\udfff", "\u2028\u2029", "%s%d%%", "12", "-0.5", "1e308", "007",
                     "NaN", "true", "null", ""]),
)
REPORT_COUNTS = st.dictionaries(REPORT_IDS, st.one_of(st.integers(0, 12), st.integers(0, 2**70)), max_size=8)


class TestReportSerialization:
    @given(g=REPORT_COUNTS, ptc=REPORT_COUNTS, v=REPORT_COUNTS, truth=st.sampled_from([None, 0, 3]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_templated_rows_write_the_bytes_of_the_generic_dump(self, g, ptc, v, truth):
        report = ScoreReport("s", score_g(g), score_ptc(ptc), score_v(v), RunConfig().snapshot())
        doc = report_to_dict(report)
        rows = [row for name in INDICATORS if "per_instance" in doc[name] for row in doc[name]["per_instance"]]
        assert all(type(row) is dict for row in rows)  # plain JSON values, not text
        assert report_to_json(report) == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        # the score command's document: templated rows, then its ground truth
        written = _report_doc(report, templated=True)
        written["ground_truth"] = doc["ground_truth"] = {"g": truth, "ptc": 1, "v": None}
        assert canonical_json_bytes(written) == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    def test_round_trip(self):
        report = score_section(workflow_demo_scene())
        doc = report_to_dict(report)
        restored = report_from_dict(doc)
        assert restored.section_id == report.section_id
        assert restored.g == report.g
        assert restored.ptc == report.ptc
        assert restored.v == report.v

    def test_unscorable_round_trip(self):
        scene = SectionScene(
            section_id="bare", instances=[mk_instance("g0", GLOMERULUS, square(0, 0, 5))]
        )
        report = score_section(scene)
        restored = report_from_dict(report_to_dict(report))
        assert restored.v == Unscorable("no arteries")

    @pytest.mark.parametrize(
        "indicator, mutate, field",
        [
            pytest.param("g", lambda d: d.update(grade=float("nan")), "g.grade", id="grade-nan"),
            pytest.param("g", lambda d: d.update(grade=1.0), "g.grade", id="grade-float"),
            pytest.param("g", lambda d: d.update(inflamed_fraction=float("nan")), "g.inflamed_fraction",
                         id="fraction-nan"),
            pytest.param("g", lambda d: d.update(n_structures=9), "g.n_structures", id="n-structures"),
            pytest.param("g", lambda d: d.update(status="bogus"), "g.status", id="status-unknown"),
            pytest.param("g", lambda d: d.update(per_instance={}), "g.per_instance", id="entries-not-a-list"),
            pytest.param("g", lambda d: d["per_instance"].reverse(), "g.per_instance", id="entries-unsorted"),
            pytest.param("ptc", lambda d: d.update(max_count=4), "ptc.max_count", id="max-count"),
            pytest.param("ptc", lambda d: d["per_instance"].append(dict(d["per_instance"][0])),
                         "ptc.per_instance[3].id", id="id-repeats"),
            pytest.param("ptc", lambda d: d["per_instance"][0].update(count=2.5), "ptc.per_instance[0].count",
                         id="count-fraction"),
            pytest.param("ptc", lambda d: d.update(per_instance=[]), "ptc.status", id="scored-without-entries"),
            pytest.param("v", lambda d: d.update(reason="no tissue"), "v.reason", id="unscorable-reason"),
        ],
    )
    def test_detail_that_does_not_regrade_is_rejected(self, indicator, mutate, field):
        scene = workflow_demo_scene()
        scene.instances = [i for i in scene.instances if i.cls.kind != ARTERY]
        doc = report_to_dict(score_section(scene))
        assert report_from_dict(doc).v == Unscorable("no arteries")
        mutate(doc[indicator])
        with pytest.raises(MalformedDocument, match=rf"^{re.escape(field)}: "):
            report_from_dict(doc)

    def test_exact_fraction_survives_serialization(self):
        detail = score_g(counts([4, 0, 0]))
        doc = report_to_dict(
            score_section(
                SectionScene(
                    section_id="frac",
                    instances=[
                        mk_instance(f"g{k}", GLOMERULUS, square(100.0 * k, 0.0, 10.0))
                        for k in range(3)
                    ],
                    detections=[mk_detection(f"d{j}", 0.0 + j * 0.5, 0.0) for j in range(4)],
                )
            )
        )
        assert doc["g"]["inflamed_fraction_ratio"] == [1, 3]
        assert detail.inflamed_fraction == Fraction(1, 3)
