"""Command-line interface: subcommands, exit codes, determinism, atomicity."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import banffscore
from banffscore import cli
from banffscore.cli import main


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def square_ring(cx, cy, half):
    return [
        [cx - half, cy - half],
        [cx + half, cy - half],
        [cx + half, cy + half],
        [cx - half, cy + half],
        [cx - half, cy - half],
    ]


def structure_doc():
    def feature(fid, name, ring):
        return {
            "type": "Feature",
            "id": fid,
            "properties": {"classification": {"name": name}},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }

    return {
        "type": "FeatureCollection",
        "features": [
            feature("glom-a", "glomerulus", square_ring(100, 100, 30)),
            feature("glom-b", "glomerulus", square_ring(300, 100, 30)),
            feature("cap-a", "ptc", square_ring(100, 300, 15)),
            feature("art-a", "artery", square_ring(300, 300, 25)),
        ],
    }


def detection_doc():
    points = [
        {"name": "lymphocyte", "point": [100.0 + dx, 100.0], "probability": 0.9}
        for dx in (-5.0, -2.5, 0.0, 2.5, 5.0)
    ]
    points.append({"name": "monocyte", "point": [100.0, 300.0], "probability": 0.8})
    points.append({"name": "lymphocyte", "point": [500.0, 500.0], "probability": 0.7})
    return {"points": points}


@pytest.fixture
def section_files(tmp_path):
    structures = write_json(tmp_path / "sec1.geojson", structure_doc())
    detections = write_json(tmp_path / "sec1.json", detection_doc())
    return structures, detections


class TestScoreCommand:
    def test_writes_report_with_intermediates(self, section_files, tmp_path):
        structures, detections = section_files
        out = tmp_path / "out"
        code = main(
            [
                "score",
                "--structures",
                str(structures),
                "--detections",
                str(detections),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "sec1.score.json").read_text())
        assert doc["g"]["grade"] == 2  # one inflamed glomerulus of two: rho = 1/2
        assert doc["g"]["inflamed_fraction_ratio"] == [1, 2]
        assert doc["ptc"]["grade"] == 1
        assert doc["v"]["grade"] == 0
        assert {e["id"]: e["count"] for e in doc["g"]["per_instance"]} == {
            "glom-a": 5,
            "glom-b": 0,
        }
        assert doc["config"]["min_confidence"] == 0.5
        assert doc["config"]["tool_version"]

    def test_byte_identical_reruns(self, section_files, tmp_path):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(out1)]) == 0
        assert main(argv + ["--out-dir", str(out2)]) == 0
        assert (out1 / "sec1.score.json").read_bytes() == (out2 / "sec1.score.json").read_bytes()

    def test_degenerate_ring_names_feature_and_exits_2(self, tmp_path, capsys):
        doc = structure_doc()
        doc["features"][0]["geometry"]["coordinates"] = [[[0, 0], [1, 1], [0, 0]]]
        structures = write_json(tmp_path / "bad.geojson", doc)
        detections = write_json(tmp_path / "d.json", detection_doc())
        code = main(
            ["score", "--structures", str(structures), "--detections", str(detections)]
        )
        assert code == 2
        assert "glom-a" in capsys.readouterr().err

    def test_missing_detections_file_exits_2(self, tmp_path, capsys):
        structures = write_json(tmp_path / "s.geojson", structure_doc())
        code = main(
            ["score", "--structures", str(structures), "--detections", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_gt_embedded_when_supplied(self, section_files, tmp_path):
        structures, detections = section_files
        gt = write_json(
            tmp_path / "gt.geojson",
            {"type": "FeatureCollection", "features": [], "properties": {"banff_g": 2}},
        )
        out = tmp_path / "out"
        assert (
            main(
                [
                    "score",
                    "--structures",
                    str(structures),
                    "--detections",
                    str(detections),
                    "--gt",
                    str(gt),
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads((out / "sec1.score.json").read_text())
        assert doc["ground_truth"] == {"g": 2, "ptc": None, "v": None}

    def test_structures_spanning_more_than_the_float_range(self, tmp_path, capsys):
        doc = structure_doc()
        doc["features"] = doc["features"][:2]
        doc["features"][0]["geometry"]["coordinates"] = [square_ring(-1e308, -1e308, 1e306)]
        doc["features"][1]["geometry"]["coordinates"] = [square_ring(1e308, 1e308, 1e306)]
        structures = write_json(tmp_path / "far.geojson", doc)
        points = [{"name": "lymphocyte", "point": [1e308 + 5e305, 1e308 - 5e305]}]
        detections = write_json(tmp_path / "far.json", {"points": points})
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "far.score.json").read_text())
        assert [(e["id"], e["count"]) for e in report["g"]["per_instance"]] == [("glom-a", 0), ("glom-b", 1)]

    def test_glomerulus_spanning_the_float_range_holds_points_on_its_axis(self, tmp_path, capsys):
        # every vertical edge's predicate overflows: 0 * inf is NaN in float64
        doc = structure_doc()
        doc["features"] = doc["features"][:1]
        ring = [[-1e308, -1.5e308], [1e308, -1.5e308], [1e308, 1.5e308], [-1e308, 1.5e308]]
        doc["features"][0]["geometry"]["coordinates"] = [ring]
        structures = write_json(tmp_path / "wide.geojson", doc)
        points = [{"name": "lymphocyte", "point": p} for p in ([0, 0], [0, 1e308])]
        detections = write_json(tmp_path / "wide.json", {"points": points})
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "wide.score.json").read_text())
        assert [(e["id"], e["count"]) for e in report["g"]["per_instance"]] == [("glom-a", 2)]

    def test_subnormal_dedup_radius_counts_like_radius_zero(self, section_files, tmp_path):
        structures, _ = section_files
        doc = detection_doc()
        doc["points"].append(dict(doc["points"][0], probability=0.6))  # an exact duplicate
        detections = write_json(tmp_path / "dup.json", doc)
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        details = {}
        for radius in ("0", "1e-320"):
            out = tmp_path / radius
            assert main(argv + ["--dedup-radius", radius, "--out-dir", str(out)]) == 0
            report = json.loads((out / "sec1.score.json").read_text())
            details[radius] = [report[k] for k in ("g", "ptc", "v")]
        assert details["1e-320"] == details["0"]
        assert details["0"][0]["per_instance"][0] == {"id": "glom-a", "count": 5, "inflamed": True}

    def test_config_precedence_file_then_flags(self, section_files, tmp_path):
        structures, detections = section_files
        config = tmp_path / "run.cfg"
        config.write_text("min_confidence = 0.95\n# comment\ncell_classes = lymphocyte\n")
        out1 = tmp_path / "cfg-only"
        assert (
            main(
                [
                    "score",
                    "--structures",
                    str(structures),
                    "--detections",
                    str(detections),
                    "--config",
                    str(config),
                    "--out-dir",
                    str(out1),
                ]
            )
            == 0
        )
        doc = json.loads((out1 / "sec1.score.json").read_text())
        assert doc["config"]["min_confidence"] == 0.95
        assert doc["config"]["cell_classes"] == ["lymphocyte"]
        assert doc["g"]["per_instance"][0]["count"] == 0  # every detection filtered out
        out2 = tmp_path / "flag-wins"
        assert (
            main(
                [
                    "score",
                    "--structures",
                    str(structures),
                    "--detections",
                    str(detections),
                    "--config",
                    str(config),
                    "--min-confidence",
                    "0.1",
                    "--out-dir",
                    str(out2),
                ]
            )
            == 0
        )
        doc = json.loads((out2 / "sec1.score.json").read_text())
        assert doc["config"]["min_confidence"] == 0.1

    @pytest.mark.parametrize(
        "section_id", ["../../pwn", "a/b", "a\\b", "..", ".", "", "a\nb", "a\x85b", "a\u2028b", "a\u2029b"]
    )
    def test_section_id_that_leaves_out_dir_exits_2(self, section_id, section_files, tmp_path, capsys):
        structures, detections = section_files
        out = tmp_path / "out" / "a" / "b"
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        assert main(argv + ["--section-id", section_id, "--out-dir", str(out)]) == 2
        assert "section_id" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*.json"))

    @pytest.mark.parametrize(
        "key, value",
        [("dedup_radius", "-1"), ("dedup_radius", "inf"), ("min_confidence", "nan"),
         ("min_confidence", "7"), ("min_confidence", "-0.5"), ("cell_classes", "lymphocytes")],
    )
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_bad_config_value_exits_2(self, key, value, source, section_files, tmp_path, capsys):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        if source == "flag":
            argv += [{"cell_classes": "--classes"}.get(key, "--" + key.replace("_", "-")), value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            argv += ["--config", str(config)]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert key.replace("_", "-") in err or key in err
        assert not out.exists()

    def test_classes_flag_is_normalized_like_the_file_key(self, section_files, tmp_path):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        docs = []
        for spelling in ("lymphocyte", "Lymphocyte"):
            out = tmp_path / spelling
            assert main(argv + ["--classes", spelling, "--out-dir", str(out)]) == 0
            docs.append(json.loads((out / "sec1.score.json").read_text()))
        assert docs[0]["g"]["per_instance"][0]["count"] == 5
        assert docs[1]["config"]["cell_classes"] == docs[0]["config"]["cell_classes"] == ["lymphocyte"]
        assert [docs[1][k] for k in ("g", "ptc", "v")] == [docs[0][k] for k in ("g", "ptc", "v")]

    @pytest.mark.parametrize(
        "source, spelling", [("--classes", ","), ("--classes", ""), ("config file", ""), ("config file", " , ")]
    )
    def test_empty_class_list_exits_2(self, source, spelling, section_files, tmp_path, capsys):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        if source == "--classes":
            argv += ["--classes", spelling]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"cell_classes ={spelling}\n")
            argv += ["--config", str(config)]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {source}: cell_classes: expected at least one cell kind, got none\n"
        )
        assert not out.exists()


def make_report_and_gt(tmp_path, name, grade, unscorable=False):
    """Score a one-glomerulus section shaped to hit the wanted g grade, then
    pair it with a matching ground-truth file."""
    if unscorable:
        structures = {"type": "FeatureCollection", "features": []}
    else:
        structures = structure_doc()
    sdoc = write_json(tmp_path / f"{name}.geojson", structures)
    n_cells = {0: 0, 1: 0, 2: 5}[grade]
    ddoc = write_json(
        tmp_path / f"{name}.json",
        {
            "points": [
                {"name": "lymphocyte", "point": [100.0 + j, 100.0], "probability": 0.9}
                for j in range(n_cells)
            ]
        },
    )
    out = tmp_path / "reports"
    assert (
        main(
            [
                "score",
                "--structures",
                str(sdoc),
                "--detections",
                str(ddoc),
                "--section-id",
                name,
                "--out-dir",
                str(out),
            ]
        )
        == 0
    )
    gt = write_json(
        tmp_path / f"{name}.gt.geojson",
        {"type": "FeatureCollection", "features": [], "properties": {"banff_g": grade}},
    )
    return out / f"{name}.score.json", gt


class TestEvaluateCommand:
    def test_identical_pairs_give_diagonal_matrix(self, tmp_path):
        rows = []
        for i in range(12):
            report, gt = make_report_and_gt(tmp_path, f"s{i}", grade=0)
            rows.append(f"{report},{gt}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("report,ground_truth\n" + "\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["indicators"]["g"]["exact_agreement"] == 1.0
        assert summary["indicators"]["g"]["cells"][0][0] == 12
        csv_text = (out / "confusion_g.csv").read_text()
        assert "0,12,0,0,0" in csv_text
        assert "excluded,0" in csv_text
        # ptc/v were graded but carry no expert annotation: excluded, not coerced
        assert summary["indicators"]["ptc"]["excluded"] == 12

    def test_unscorable_prediction_counts_as_excluded(self, tmp_path):
        report1, gt1 = make_report_and_gt(tmp_path, "ok", grade=2)
        report2, gt2 = make_report_and_gt(tmp_path, "empty", grade=1, unscorable=True)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"report,ground_truth\n{report1},{gt1}\n{report2},{gt2}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["indicators"]["g"]["included"] == 1
        assert summary["indicators"]["g"]["excluded"] == 1

    @pytest.mark.parametrize("preamble", ["# pairs for the g study\n", "\n"], ids=["comment", "blank-line"])
    def test_header_after_a_comment_or_blank_line_is_skipped(self, preamble, tmp_path):
        report, gt = make_report_and_gt(tmp_path, "only", grade=2)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{preamble}report,ground_truth\n{report},{gt}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["indicators"]["g"]["cells"][2][2] == 1

    @pytest.mark.parametrize("blank", ["   \t", " ,", ", ,"], ids=["spaces", "two-blank-fields", "three-blank-fields"])
    def test_rows_of_blank_fields_are_skipped(self, blank, tmp_path):
        """A line of spaces exited 2 with ``expected 'report,ground_truth'``,
        and a row of blank fields with ``file not found: <manifest directory>``."""
        report, gt = make_report_and_gt(tmp_path, "only", grade=2)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"report,ground_truth\n{blank}\n{report},{gt}\n{blank}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["indicators"]["g"]["cells"][2][2] == 1

    @pytest.mark.parametrize("row, name", [(" ,{gt}", "report"), ("{report}, ", "ground_truth"),
                                           ("{report},", "ground_truth")],
                             ids=["blank-report", "blank-ground-truth", "empty-ground-truth"])
    def test_row_with_a_blank_field_names_the_manifest_and_the_row(self, row, name, tmp_path, capsys):
        report, gt = make_report_and_gt(tmp_path, "only", grade=2)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"report,ground_truth\n{report},{gt}\n{row.format(report=report, gt=gt)}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: manifest row 3: the {name} field is blank\n"
        assert not out.exists() or not list(out.iterdir())

    def test_unresolvable_manifest_row_exits_2_with_no_partial_output(self, tmp_path, capsys):
        report, gt = make_report_and_gt(tmp_path, "only", grade=0)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"report,ground_truth\n{report},{gt}\nmissing.json,{gt}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
        assert "missing.json" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestUnreadableTextInputs:
    """Text inputs that raised ``UnicodeDecodeError`` or ``_csv.Error`` with
    exit 1 now exit 2 naming the file, before any output is made."""

    def test_config_file_not_utf8(self, section_files, tmp_path, capsys):
        structures, detections = section_files
        config = tmp_path / "run.cfg"
        config.write_bytes(b"min_confidence = 0.5\n# caf\xe9\n")
        out = tmp_path / "out"
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        assert main(argv + ["--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not UTF-8 text") and "at byte 26" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(b"report,ground_truth\n\xff.json,gt.json\n", ": not UTF-8 text", id="not-utf8"),
            pytest.param(b"a" * (csv.field_size_limit() + 1) + b",gt.json\n", ": row 1: field larger than",
                         id="field-over-csv-limit"),
        ],
    )
    def test_manifest(self, text, expected, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(text)
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}{expected}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("report,ground_truth\nonly-a-report.json\n",
                         "manifest row 2: expected 'report,ground_truth'", id="one-column-row"),
            pytest.param("report,ground_truth\n# a comment\n\n", "manifest lists no report/ground-truth pairs",
                         id="no-pairs"),
        ],
    )
    def test_manifest_error_names_the_manifest(self, text, expected, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text)
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: {expected}\n"
        assert not out.exists()


SCENE_SPEC = {
    "section_id": "synth-x",
    "glomerulus_cells": [5, 0, 0, 0, 0],
    "ptc_cells": [3],
    "artery_cells": [0],
    "background_cells": 10,
    "seed": 7,
}


class TestSynthAndSensitivityCommands:
    def test_synth_is_byte_identical_across_runs(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out1)]) == 0
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out2)]) == 0
        assert (out1 / "synth-x.scene.json").read_bytes() == (
            out2 / "synth-x.scene.json"
        ).read_bytes()
        gt = json.loads((out1 / "synth-x.gt.geojson").read_text())
        assert gt["properties"]["banff_g"] == 1
        assert gt["properties"]["banff_ptc"] == 1
        assert gt["properties"]["banff_v"] == 0

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out1)]) == 0
        assert main(["synth", "--spec", str(spec), "--seed", "99", "--out-dir", str(out2)]) == 0
        assert (out1 / "synth-x.scene.json").read_bytes() != (
            out2 / "synth-x.scene.json"
        ).read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "bogus_knob": 1})
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "o")]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_spec_section_id_that_leaves_out_dir_exits_2(self, tmp_path, capsys):
        for section_id in ("../escaped", "escaped\nid", "escaped\u2028id"):
            spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "section_id": section_id})
            out = tmp_path / "o" / "inner"
            assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 2
            assert "section_id" in capsys.readouterr().err
            assert not list(tmp_path.rglob("escaped*"))

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("canvas", [0, 0, 100], id="canvas-3-values"),
            pytest.param("canvas", [0, 0, float("nan"), 100], id="canvas-nan"),
            pytest.param("canvas", [100, 0, 0, 100], id="canvas-x0-above-x1"),
            pytest.param("canvas", [0, 100, 100, 100], id="canvas-y0-equals-y1"),
            # its width overflows, so drawing a uniform x raised OverflowError
            pytest.param("canvas", [-1e308, -1e308, 1e308, 1e308], id="canvas-wider-than-the-float-range"),
            pytest.param("ptc_radius", [30, 10], id="radius-min-above-max"),
            pytest.param("ptc_radius", [-30, -10], id="radius-negative"),
            pytest.param("artery_radius", [50], id="radius-1-value"),
            pytest.param("background_cells", 2.5, id="background-cells-fraction"),
            pytest.param("ptc_cells", [1.7], id="planted-count-fraction"),
            pytest.param("glomerulus_cells", 3, id="planted-counts-not-a-list"),
            pytest.param("seed", 1.5, id="seed-fraction"),
            pytest.param("seed", True, id="seed-bool"),
            pytest.param("section_id", 5, id="section-id-number"),
        ],
    )
    def test_bad_scene_spec_value_exits_2(self, key, value, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, key: value})
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert f"error: {spec}: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("jitter_sigma", float("nan"), id="jitter-nan"),
            pytest.param("jitter_sigma", float("inf"), id="jitter-inf"),
            pytest.param("detection_fp_count", 2.5, id="fp-count-fraction"),
            pytest.param("detection_fp_count", True, id="fp-count-bool"),
            pytest.param("detection_fn_prob", "x", id="fn-prob-string"),
            pytest.param("seed", 1.5, id="seed-fraction"),
            pytest.param("seed", "x", id="seed-string"),
            pytest.param("omit_instance_prob", {"glomerulus": "x"}, id="omit-prob-string"),
            pytest.param("fp_cell_class", "neutrophil", id="fp-class-neutrophil"),
            pytest.param("fp_cell_class", "bogus", id="fp-class-bogus"),
            pytest.param("hallucinate_instances", {"artery": {"count": "x"}}, id="halluc-count-string"),
            pytest.param(
                "hallucinate_instances", {"artery": {"count": 1, "radius": [50]}}, id="halluc-radius-1-value"
            ),
            pytest.param(
                "hallucinate_instances",
                {"artery": {"count": 1, "radius": [float("nan"), 3]}},
                id="halluc-radius-nan",
            ),
            pytest.param(
                "hallucinate_instances",
                {"artery": {"count": 1, "radius": [-60, -50]}},
                id="halluc-radius-negative",
            ),
            pytest.param(
                "hallucinate_instances", {"artery": {"count": 1, "size": 3}}, id="halluc-unknown-key"
            ),
        ],
    )
    def test_bad_perturbation_spec_value_exits_2(self, key, value, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"detection_fn_prob": 0.5, "seed": 3, key: value})
        out = tmp_path / "sens"
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        assert main(argv + ["--trials", "3", "--out-dir", str(out)]) == 2
        assert f"error: {pspec}: {key}" in capsys.readouterr().err
        assert not out.exists()

    ALL_CELL_FIELDS = "glomerulus_cells, ptc_cells, artery_cells and background_cells"

    @pytest.mark.parametrize(
        "edits, field",
        [
            # background_cells made synth run until killed, a planted count a MemoryError
            pytest.param({"background_cells": 2**64}, "background_cells", id="background-2**64"),
            pytest.param({"glomerulus_cells": [2**64]}, "glomerulus_cells[0]", id="planted-2**64"),
            pytest.param({"ptc_cells": [1, 10**6 + 1]}, "ptc_cells[1]", id="planted-just-over"),
            pytest.param({"ptc_cells": [1], "background_cells": 10**6}, ALL_CELL_FIELDS, id="total-just-over"),
        ],
    )
    def test_scene_spec_count_over_the_limit_exits_2(self, edits, field, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, **edits})
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err.startswith(f"error: {spec}: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits, field",
        [
            # the first two exited 1 with a traceback
            pytest.param({"hallucinate_instances": {"artery": {"count": 2**64}}},
                         "hallucinate_instances['artery'].count", id="halluc-count-2**64"),
            pytest.param({"detection_fp_count": 2**64}, "detection_fp_count", id="fp-count-2**64"),
            pytest.param({"hallucinate_instances": {"glomerulus": {"count": 1, "cells_per_instance": 2**64}}},
                         "hallucinate_instances['glomerulus'].cells_per_instance", id="halluc-cells-2**64"),
            pytest.param({"hallucinate_instances": {"artery": {"count": 1000, "cells_per_instance": 1000}},
                          "detection_fp_count": 1},
                         "hallucinate_instances and detection_fp_count", id="total-just-over"),
        ],
    )
    def test_perturbation_count_over_the_limit_exits_2(self, edits, field, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"seed": 3, **edits})
        out = tmp_path / "sens"
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        start = time.perf_counter()
        assert main(argv + ["--trials", "3", "--out-dir", str(out)]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err.startswith(f"error: {pspec}: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("trials", [pytest.param(2**64, id="2**64"), pytest.param(10**6 + 1, id="just-over")])
    def test_trials_over_the_limit_exits_2(self, trials, tmp_path, capsys):
        # 2**64 trials ran until killed
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"seed": 3})
        out = tmp_path / "sens"
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        capsys.readouterr()
        start = time.perf_counter()
        assert main(argv + ["--trials", str(trials), "--out-dir", str(out)]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err == f"error: trials: {trials} is over the limit of 1000000\n"
        assert not out.exists()

    @pytest.mark.parametrize("cells", [pytest.param([4], id="with-cells"), pytest.param([0], id="empty")])
    def test_collapsed_ring_exits_2_naming_it(self, cells, tmp_path, capsys):
        doc = {**SCENE_SPEC, "glomerulus_cells": cells, "glomerulus_radius": [1e-20, 1e-20]}
        spec = write_json(tmp_path / "spec.json", doc)
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: glom-1: ring has fewer than 3 distinct vertices\n"
        assert not out.exists()

    def test_collapsed_hallucinated_ring_exits_2_naming_it(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        hallucinate = {"glomerulus": {"count": 1, "cells_per_instance": 4, "radius": [1e-20, 1e-20]}}
        pspec = write_json(tmp_path / "p.json", {"hallucinate_instances": hallucinate, "seed": 3})
        out = tmp_path / "sens"
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        capsys.readouterr()
        assert main(argv + ["--trials", "3", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: hall-glomerulus-1: ring has fewer than 3 distinct vertices\n"
        assert not out.exists()

    def test_scene_section_id_that_leaves_out_dir_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        scene_path = tmp_path / "synth-x.scene.json"
        doc = json.loads(scene_path.read_text())
        pspec = write_json(tmp_path / "p.json", {"seed": 3})
        out = tmp_path / "o" / "inner"
        argv = ["sensitivity", "--scene", str(scene_path), "--perturb", str(pspec), "--trials", "2"]
        for section_id in ("../escaped", "escaped\nid", "escaped\u2028id"):
            write_json(scene_path, {**doc, "section_id": section_id})
            assert main(argv + ["--out-dir", str(out)]) == 2
            assert "section_id" in capsys.readouterr().err
            assert not list(tmp_path.rglob("escaped*"))

    def test_sensitivity_outputs(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"detection_fn_prob": 0.5, "seed": 3})
        out = tmp_path / "sens"
        assert (
            main(
                [
                    "sensitivity",
                    "--scene",
                    str(tmp_path / "synth-x.scene.json"),
                    "--perturb",
                    str(pspec),
                    "--trials",
                    "25",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads((out / "synth-x.sensitivity.json").read_text())
        assert doc["trials"] == 25
        assert sum(doc["per_indicator"]["g"]["histogram"].values()) == 25
        csv_lines = (out / "synth-x.sensitivity.csv").read_text().strip().splitlines()
        assert csv_lines[1] == "trial,g,ptc,v"
        assert len(csv_lines) == 27  # comment + header + 25 trials

    def test_hallucinated_instance_never_takes_a_scene_instance_id(self, tmp_path):
        # an empty hallucinated artery named like the scene's 20-cell artery
        # used to replace that artery's count, flipping v from 3 to 0
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "artery_cells": [20]})
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        scene_path = tmp_path / "synth-x.scene.json"
        doc = json.loads(scene_path.read_text())
        (artery,) = [inst for inst in doc["instances"] if inst["id"] == "art-1"]
        artery["id"] = "hall-artery-1"
        write_json(scene_path, doc)
        hallucinate = {"artery": {"count": 1, "cells_per_instance": 0}}
        pspec = write_json(tmp_path / "p.json", {"hallucinate_instances": hallucinate})
        out = tmp_path / "sens"
        argv = ["sensitivity", "--scene", str(scene_path), "--perturb", str(pspec), "--trials", "5"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        v = json.loads((out / "synth-x.sensitivity.json").read_text())["per_indicator"]["v"]
        assert (v["baseline"], v["flip_rate"], v["histogram"]["3"]) == ("3", 0.0, 5)

    def test_sensitivity_rows_do_not_depend_on_trial_count(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"detection_fn_prob": 0.5, "seed": 3})
        rows = {}
        for trials in ("10", "30"):
            out = tmp_path / f"t{trials}"
            assert (
                main(
                    [
                        "sensitivity",
                        "--scene",
                        str(tmp_path / "synth-x.scene.json"),
                        "--perturb",
                        str(pspec),
                        "--trials",
                        trials,
                        "--out-dir",
                        str(out),
                    ]
                )
                == 0
            )
            rows[trials] = (out / "synth-x.sensitivity.csv").read_text().splitlines()[2:]
        assert len(rows["30"]) == 30
        assert rows["10"] == rows["30"][:10]


def grid_section(tmp_path: Path, n: int) -> list:
    """The ``score`` command line for a section of ``n`` 60-px squares of
    four kinds on a 10-wide grid, with 10 detections of three classes in
    each, at dedup radius 3."""
    features, points = [], []
    for k in range(n):
        cx, cy = 100.0 * (k % 10), 100.0 * (k // 10)
        name = ("glomerulus", "ptc", "artery", "tubule")[k % 4]
        features.append({"type": "Feature", "id": f"f{k}", "properties": {"classification": {"name": name}},
                         "geometry": {"type": "Polygon", "coordinates": [square_ring(cx, cy, 30)]}})
        points += [{"name": ("lymphocyte", "monocyte", "plasma cell")[d % 3], "point": [cx + d, cy + d % 4],
                    "probability": 0.4 + d / 20} for d in range(10)]
    structures = write_json(tmp_path / f"grid{n}.geojson", {"type": "FeatureCollection", "features": features})
    detections = write_json(tmp_path / f"grid{n}.json", {"points": points})
    return ["score", "--structures", str(structures), "--detections", str(detections), "--dedup-radius", "3",
            "--out-dir", str(tmp_path / "out")]


class TestCollectorPause:
    """``main`` pauses cyclic garbage collection while a command runs, and
    a command makes no reference cycles that grow with its input."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_is_restored_after_exit_0_and_2(self, enabled, collector, section_files, tmp_path,
                                                    monkeypatch):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        seen = []
        score_table = cli._score_table
        monkeypatch.setattr(cli, "_score_table", lambda *a: seen.append(gc.isenabled()) or score_table(*a))
        (gc.enable if enabled else gc.disable)()
        assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert gc.isenabled() is enabled
        assert main(argv + ["--dedup-radius", "-1", "--out-dir", str(tmp_path / "b")]) == 2
        assert gc.isenabled() is enabled
        assert seen == [False]

    @staticmethod
    def unreachable_after(argv) -> int:
        """The objects a collection finds unreachable after ``main(argv)``,
        with collection paused from just before the call."""
        gc.disable()
        gc.collect()
        assert main(argv) == 0
        return gc.collect()

    def test_sensitivity_cycles_do_not_grow_with_trials(self, collector, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", TestSynthGoldenBytes.PERTURBATION)
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        few = self.unreachable_after(argv + ["--trials", "2", "--out-dir", str(tmp_path / "a")])
        many = self.unreachable_after(argv + ["--trials", "20", "--out-dir", str(tmp_path / "b")])
        assert few == many

    def test_score_cycles_do_not_grow_with_the_section(self, collector, tmp_path):
        small = self.unreachable_after(grid_section(tmp_path, 20))
        large = self.unreachable_after(grid_section(tmp_path, 200))
        assert small == large


class TestFailedWrite:
    """An output that cannot be written exits 2 naming its path, and no
    output or temp file is left behind; these ended in a FileExistsError or
    IsADirectoryError traceback with exit 1, the latter after the scene was
    written."""

    @staticmethod
    def argv(command, section_files, tmp_path, out_dir):
        if command == "synth":
            return ["synth", "--spec", str(write_json(tmp_path / "spec.json", SCENE_SPEC)), "--out-dir", str(out_dir)]
        structures, detections = section_files
        return ["score", "--structures", str(structures), "--detections", str(detections), "--out-dir", str(out_dir)]

    @staticmethod
    def tree(root):
        return sorted((str(p.relative_to(root)), p.is_dir() or p.read_bytes()) for p in root.rglob("*"))

    @pytest.mark.parametrize("command", ["synth", "score"])
    def test_out_dir_that_is_a_file(self, command, section_files, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        argv = self.argv(command, section_files, tmp_path, afile)
        before = self.tree(tmp_path)
        assert main(argv) == 2
        assert str(afile) in capsys.readouterr().err
        assert self.tree(tmp_path) == before

    @pytest.mark.parametrize(
        "command, blocked",
        [("synth", "synth-x.gt.geojson"), ("synth", "synth-x.scene.json"), ("score", "sec1.score.json")],
    )
    def test_output_path_that_is_a_directory(self, command, blocked, section_files, tmp_path, capsys):
        out = tmp_path / "o2"
        (out / blocked).mkdir(parents=True)
        argv = self.argv(command, section_files, tmp_path, out)
        before = self.tree(tmp_path)
        assert main(argv) == 2
        assert str(out / blocked) in capsys.readouterr().err
        assert self.tree(tmp_path) == before


class TestSectionIdTooLongForAFileName:
    """A section id too long for the temp file names of its outputs exits 2
    naming ``section_id`` before any directory is made; ``tempfile.mkstemp``
    raised ``OSError: [Errno 36] File name too long`` with exit 1."""

    # "." + id + ".sensitivity.json." + 8 characters + ".tmp" is 31 bytes
    # longer than the id, and a file name holds 255 bytes.
    LONGEST = "a" * 224
    TOO_LONG = [
        pytest.param("a" * 225, id="225-bytes"),
        pytest.param("a" * 240, id="240-bytes"),
        pytest.param("\u00e9" * 113, id="226-bytes-in-utf8"),
    ]

    @staticmethod
    def assert_rejected(code, err, out_root):
        assert code == 2
        assert err.startswith("error: section_id ") and "too long" in err
        assert not out_root.exists()

    @pytest.mark.parametrize("section_id", TOO_LONG)
    def test_score_section_id_flag(self, section_id, section_files, tmp_path, capsys):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        code = main(argv + ["--section-id", section_id, "--out-dir", str(tmp_path / "out" / "inner")])
        self.assert_rejected(code, capsys.readouterr().err, tmp_path / "out")

    @pytest.mark.parametrize("section_id", TOO_LONG)
    def test_spec_section_id(self, section_id, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "section_id": section_id})
        code = main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out" / "inner")])
        self.assert_rejected(code, capsys.readouterr().err, tmp_path / "out")

    @pytest.mark.parametrize("section_id", TOO_LONG)
    def test_scene_section_id(self, section_id, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        scene_path = tmp_path / "synth-x.scene.json"
        write_json(scene_path, {**json.loads(scene_path.read_text()), "section_id": section_id})
        pspec = write_json(tmp_path / "p.json", {"seed": 3})
        argv = ["sensitivity", "--scene", str(scene_path), "--perturb", str(pspec), "--trials", "2"]
        code = main(argv + ["--out-dir", str(tmp_path / "out" / "inner")])
        self.assert_rejected(code, capsys.readouterr().err, tmp_path / "out")

    def test_longest_id_writes_every_output(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "section_id": self.LONGEST})
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 0
        pspec = write_json(tmp_path / "p.json", {"seed": 3})
        argv = ["sensitivity", "--scene", str(out / f"{self.LONGEST}.scene.json"), "--perturb", str(pspec)]
        assert main(argv + ["--trials", "2", "--out-dir", str(out)]) == 0
        assert (out / f"{self.LONGEST}.sensitivity.json").is_file()

    def test_lone_surrogate_exits_2(self, tmp_path, capsys):
        # JSON text can hold one; a file name cannot
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SCENE_SPEC, "section_id": "a\ud800b"}), encoding="ascii")
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: section_id 'a\\ud800b' cannot name an output file")
        assert not (tmp_path / "out").exists()


def test_outputs_do_not_depend_on_the_hash_seed(section_files, tmp_path):
    """``synth``, ``sensitivity``, ``score`` and ``render`` write the same
    bytes under two string-hash seeds: no output follows set or hash order."""
    structures, detections = section_files
    spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
    pspec = write_json(tmp_path / "p.json", {
        "omit_instance_prob": {"glomerulus": 0.3}, "hallucinate_instances": {"artery": {"count": 1}},
        "detection_fn_prob": 0.2, "detection_fp_count": 3, "jitter_sigma": 1.0, "seed": 5,
    })
    src = str(Path(banffscore.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"out-{hash_seed}"
        scene = out / "synth-x.scene.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for argv in (
            ["synth", "--spec", str(spec)],
            ["sensitivity", "--scene", str(scene), "--perturb", str(pspec), "--trials", "5"],
            ["score", "--structures", str(structures), "--detections", str(detections),
             "--classes", "monocyte,lymphocyte", "--dedup-radius", "1"],
            ["render", "--scene", str(scene), "--report", str(out / "sec1.score.json")],
        ):
            done = subprocess.run([sys.executable, "-m", "banffscore", *argv, "--out-dir", str(out)],
                                  capture_output=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


class TestRenderCommand:
    def test_render_scene_and_report(self, section_files, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        scene_path = tmp_path / "synth-x.scene.json"
        out = tmp_path / "svg"
        assert main(["render", "--scene", str(scene_path), "--out-dir", str(out)]) == 0
        svg = (out / "synth-x.scene.svg").read_bytes()
        assert svg.startswith(b"<?xml")
        assert svg.count(b"<path") == 7  # 5 glomeruli + 1 capillary + 1 artery
        assert main(["render", "--scene", str(scene_path), "--out-dir", str(out)]) == 0
        assert (out / "synth-x.scene.svg").read_bytes() == svg

    @pytest.mark.parametrize(
        "flag, value",
        [("--config", "run.cfg"), ("--min-confidence", "7"), ("--classes", "lymphocyte"),
         ("--dedup-radius", "8")],
    )
    def test_render_rejects_config_flags(self, flag, value, tmp_path, capsys):
        argv = ["render", "--scene", str(tmp_path / "s.scene.json"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_render_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "scene.json"
        bad.write_text("{broken")
        assert main(["render", "--scene", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_scene_stem_too_long_for_the_svg_exits_2(self, tmp_path, capsys):
        """The SVG's temp file ".<stem>.svg.XXXXXXXX.tmp" is 18 bytes longer
        than the scene file's stem; a 238-byte stem made ``tempfile.mkstemp``
        raise ``OSError: [Errno 36] File name too long`` with exit 1 after
        ``--out-dir`` was made."""
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        scene = (tmp_path / "synth-x.scene.json").read_bytes()
        for stem, code in (("b" * 237, 0), ("b" * 238, 2), ("b" * 240, 2)):
            scene_path = tmp_path / f"{stem}.json"
            scene_path.write_bytes(scene)
            out = tmp_path / f"out-{len(stem)}" / "inner"
            assert main(["render", "--scene", str(scene_path), "--out-dir", str(out)]) == code
            if code == 2:
                assert "error: scene file name " in capsys.readouterr().err
                assert not out.parent.exists()
            else:
                assert (out / f"{stem}.svg").read_bytes().startswith(b"<?xml")


def scene_doc(instances, metadata):
    """A scene document: ``instances`` maps an id to a structure class and an exterior ring."""
    return {
        "section_id": "wide",
        "instances": [
            {"id": iid, "class": cls, "polygon": {"exterior": ring, "holes": []}, "properties": {}}
            for iid, (cls, ring) in instances.items()
        ],
        "detections": [{"id": "c1", "class": "lymphocyte", "point": [100.0, 100.0], "confidence": 0.9}],
        "metadata": metadata,
    }


class TestSceneCanvasWithoutFiniteWidth:
    """A scene canvas whose width or height overflows exits 2 naming
    ``canvas``: ``sensitivity`` drew FP points from ``rng.uniform`` with an
    infinite range, and ``render`` wrote ``inf`` into the SVG."""

    WIDE = [-1e308, -1e308, 1e308, 1e308]
    # no canvas, and a padded bounding box wider than the float range
    FAR_APART = {"glom-a": ("glomerulus", square_ring(-1e308, -1e308, 1e306)),
                 "glom-b": ("glomerulus", square_ring(1e308, 1e308, 1e306))}

    @pytest.mark.parametrize(
        "instances, metadata, field",
        [
            pytest.param({"glom-a": ("glomerulus", square_ring(100, 100, 30))}, {"canvas": WIDE},
                         "error: metadata.canvas: ", id="metadata-canvas"),
            pytest.param(FAR_APART, {}, "error: canvas (the padded bounding box of the scene): ",
                         id="scene-bounding-box"),
        ],
    )
    @pytest.mark.parametrize("command", ["sensitivity", "render"])
    def test_scene_canvas_exits_2(self, command, instances, metadata, field, tmp_path, capsys):
        scene = write_json(tmp_path / "wide.scene.json", scene_doc(instances, metadata))
        pspec = write_json(tmp_path / "p.json", {"detection_fp_count": 3, "seed": 3})
        out = tmp_path / "o"
        argv = ["render", "--scene", str(scene)]
        if command == "sensitivity":
            argv = ["sensitivity", "--scene", str(scene), "--perturb", str(pspec), "--trials", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        if metadata:  # read_scene checks metadata.canvas, so the error names the scene file
            field = field.replace("error: ", f"error: {scene}: ", 1)
        assert err.startswith(field) and "finite width and height" in err
        assert not out.exists()

    def test_stages_that_draw_no_position_need_no_canvas(self, tmp_path):
        scene = write_json(tmp_path / "wide.scene.json", scene_doc(self.FAR_APART, {}))
        pspec = write_json(tmp_path / "p.json", {"detection_fn_prob": 0.5, "jitter_sigma": 2.0, "seed": 3})
        argv = ["sensitivity", "--scene", str(scene), "--perturb", str(pspec), "--trials", "2"]
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 0


class Literal(str):
    """A value written into the JSON text as it is, unquoted."""


BIG_INT = 10**400  # valid JSON, too large for a float
RING_X = ("features", 0, "geometry", "coordinates", 0, 1, 0)  # glom-a, vertex 1, x = 130


def bad_number_inputs(command, section_files, tmp_path):
    """The JSON files one ``command`` run reads, by role, and its argv."""
    if command == "score":
        structures, detections = section_files
        gt = write_json(
            tmp_path / "gt.geojson",
            {"type": "FeatureCollection", "features": [], "properties": {"banff_g": 1}},
        )
        files = {"structures": structures, "detections": detections, "gt": gt}
        argv = ["score", "--structures", str(structures), "--detections", str(detections), "--gt", str(gt)]
    elif command == "sensitivity":
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        pspec = write_json(tmp_path / "p.json", {"detection_fp_count": 5, "seed": 3})
        scene = tmp_path / "synth-x.scene.json"
        files = {"scene": scene}
        argv = ["sensitivity", "--scene", str(scene), "--perturb", str(pspec), "--trials", "2"]
    else:
        report, gt = make_report_and_gt(tmp_path, "s", grade=0)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{report},{gt}\n", encoding="utf-8")
        files = {"report": report}
        argv = ["evaluate", "--manifest", str(manifest)]
    return files, argv + ["--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "command, role, path, value, field",
    [
        pytest.param("score", "structures", RING_X, BIG_INT, "feature glom-a: non-finite ring vertex",
                     id="ring-vertex-huge-int"),
        pytest.param("score", "structures", RING_X, "130", "feature glom-a: non-numeric ring vertex",
                     id="ring-vertex-string"),
        pytest.param("score", "detections", ("points", 0, "point"), [BIG_INT, 100], "points[0].point",
                     id="point-huge-int"),
        pytest.param("score", "detections", ("points", 0, "point"), [True, False], "points[0].point",
                     id="point-bools"),
        pytest.param("score", "detections", ("points", 0, "point"), ["1", "2"], "points[0].point",
                     id="point-strings"),
        pytest.param("score", "detections", ("points", 0, "probability"), BIG_INT, "points[0].probability",
                     id="probability-huge-int"),
        pytest.param("score", "detections", ("points", 0, "point"), [Literal("1" + "0" * 5000), 100],
                     "not valid JSON", id="point-int-literal-too-long-to-read"),
        pytest.param("score", "gt", ("properties", "banff_g"), float("nan"), "banff_g", id="gt-nan"),
        pytest.param("score", "gt", ("properties", "banff_g"), float("inf"), "banff_g", id="gt-infinity"),
        pytest.param("score", "gt", ("properties", "banff_g"), Literal("1e309"), "banff_g", id="gt-1e309"),
        pytest.param("score", "gt", ("properties", "banff_g"), BIG_INT, "banff_g", id="gt-huge-int"),
        pytest.param("score", "gt", ("properties", "section_id"), 12, "section_id",
                     id="gt-section-id-number"),
        pytest.param("sensitivity", "scene", ("detections", 0, "confidence"), BIG_INT,
                     "detections[0].confidence", id="scene-confidence-huge-int"),
        pytest.param("sensitivity", "scene", ("detections", 0, "confidence"), "0.7",
                     "detections[0].confidence", id="scene-confidence-string"),
        pytest.param("sensitivity", "scene", ("detections", 0, "confidence"), True,
                     "detections[0].confidence", id="scene-confidence-bool"),
        pytest.param("sensitivity", "scene", ("detections", 0, "point"), [True, False],
                     "detections[0].point", id="scene-point-bools"),
        pytest.param("sensitivity", "scene", ("detections", 0, "point"), ["1", "2"],
                     "detections[0].point", id="scene-point-strings"),
        pytest.param("sensitivity", "scene", ("metadata", "canvas"), [0, 0, -5, "x"], "metadata.canvas",
                     id="scene-canvas-string"),
        pytest.param("sensitivity", "scene", ("metadata", "canvas"), [0, 0, float("inf"), 100],
                     "metadata.canvas", id="scene-canvas-infinity"),
        pytest.param("evaluate", "report", ("g", "inflamed_fraction_ratio"), [1, 0],
                     "g.inflamed_fraction_ratio", id="report-zero-denominator"),
        pytest.param("evaluate", "report", ("g", "grade"), float("inf"), "g.grade", id="report-grade-infinity"),
        pytest.param("evaluate", "report", ("g", "grade"), "2", "g.grade", id="report-grade-string"),
        pytest.param("evaluate", "report", ("g", "grade"), 3, "g.grade", id="report-grade-not-regraded"),
        pytest.param("evaluate", "report", ("g", "per_instance", 1, "inflamed"), "false", "g.per_instance",
                     id="report-inflamed-string"),
        pytest.param("evaluate", "report", ("g", "per_instance", 0, "count"), -4, "g.per_instance[0].count",
                     id="report-count-negative"),
        pytest.param("evaluate", "report", ("g", "per_instance", 0), {"count": 0, "inflamed": False},
                     "g.per_instance[0].id", id="report-id-missing"),
        pytest.param("evaluate", "report", ("g", "per_instance", 0, "id"), 7, "g.per_instance[0].id",
                     id="report-id-number"),
        pytest.param("evaluate", "report", ("section_id",), 12, "section_id", id="report-section-id-number"),
        pytest.param("sensitivity", "scene", ("section_id",), 12, "section_id", id="scene-section-id-number"),
        pytest.param("sensitivity", "scene", ("instances", 0, "id"), 5, "instances[0].id",
                     id="scene-instance-id-number"),
        pytest.param("sensitivity", "scene", ("detections", 0, "id"), 5, "detections[0].id",
                     id="scene-detection-id-number"),
    ],
)
def test_bad_number_exits_2(command, role, path, value, field, section_files, tmp_path, capsys):
    files, argv = bad_number_inputs(command, section_files, tmp_path)
    doc = json.loads(files[role].read_text(encoding="utf-8"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(doc)
    for literal in value if isinstance(value, list) else [value]:
        if isinstance(literal, Literal):
            text = text.replace(json.dumps(literal), literal)
    files[role].write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("probability", BIG_INT, id="probability-401-digits"),
        pytest.param("point", ["1" * 5000, 100], id="point-5000-character-string"),
    ],
)
def test_long_bad_value_is_echoed_abbreviated(key, value, section_files, tmp_path, capsys):
    structures, detections = section_files
    doc = detection_doc()
    doc["points"][0][key] = value
    write_json(detections, doc)
    argv = ["score", "--structures", str(structures), "--detections", str(detections)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    prefix = f"error: {detections}: "
    assert err.startswith(f"{prefix}points[0].{key}: expected ") and err.count("\n") == 1
    assert len(err) - len(prefix) < 200


LONG_ID = "g" * 5000
ECHOED_LONG_ID = "'ggggggggg...gggggggggg'"
FLAT_RING = [[0, 0], [1, 1], [2, 2], [0, 0]]  # zero area


@pytest.mark.parametrize(
    "command, role, edits, start",
    [
        pytest.param("score", "structures",
                     [(("features", 0, "id"), LONG_ID), (("features", 0, "geometry", "coordinates", 0), FLAT_RING)],
                     f"feature {ECHOED_LONG_ID}: ring has zero area", id="feature-id-on-a-zero-area-ring"),
        pytest.param("score", "structures", [(("features", 0, "id"), LONG_ID), (("features", 1, "id"), LONG_ID)],
                     f"duplicate instance id {ECHOED_LONG_ID}", id="duplicate-feature-id"),
        pytest.param("score", "structures", [(RING_X, "1" * 5000)],
                     "feature glom-a: non-numeric ring vertex ['111111111...1111111111', 70]",
                     id="string-ring-vertex"),
        pytest.param("score", "structures", [(("features", 0, "geometry", "type"), "x" * 5000)],
                     "feature glom-a: unsupported geometry type 'xxxxxxxxx...xxxxxxxxxx'",
                     id="geometry-type"),
        pytest.param("score", "detections", [(("points", 0, "point"), [BIG_INT, 0])],
                     "points[0].point: non-finite point coordinates [1000000000...00000000000, 0]",
                     id="huge-int-point"),
        pytest.param("score", "gt", [(("properties", "banff_g"), 10**300)],
                     "banff_g=1000000000...00000000000 outside 0-3", id="grade-value"),
        pytest.param("sensitivity", "scene", [(("instances", 0, "class"), "x" * 5000)],
                     "instances[0].class: unknown class 'xxxxxxxxx...xxxxxxxxxx'", id="scene-class-label"),
        pytest.param("sensitivity", "scene",
                     [(("instances", 0, "id"), LONG_ID), (("instances", 0, "polygon", "exterior"), FLAT_RING)],
                     f"instance {ECHOED_LONG_ID}: ring has zero area", id="scene-instance-id-on-a-bad-ring"),
        pytest.param("sensitivity", "scene", [(("detections", 0, "id"), LONG_ID), (("detections", 1, "id"), LONG_ID)],
                     f"duplicate detection id {ECHOED_LONG_ID}", id="duplicate-scene-detection-id"),
        pytest.param("evaluate", "report",
                     [(("g", "per_instance", 0, "id"), LONG_ID), (("g", "per_instance", 1, "id"), LONG_ID)],
                     f"g.per_instance[1].id: {ECHOED_LONG_ID} repeats", id="duplicate-report-id"),
    ],
)
def test_long_id_or_value_is_echoed_abbreviated(command, role, edits, start, section_files, tmp_path, capsys):
    files, argv = bad_number_inputs(command, section_files, tmp_path)
    doc = json.loads(files[role].read_text(encoding="utf-8"))
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    write_json(files[role], doc)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    prefix = f"error: {files[role]}: "
    assert err.startswith(f"{prefix}{start}") and err.count("\n") == 1
    assert len(err) - len(prefix) < 200


@pytest.mark.parametrize(
    "command, role, path, value, message",
    [
        pytest.param("score", "structures", ("features", 0, "geometry", "coordinates", 0), FLAT_RING,
                     "feature glom-a: ring has zero area", id="structures-ring"),
        pytest.param("score", "structures", ("features", 0, "id"), {"a": 1},
                     "features[0].id: expected a string or a number, got {'a': 1}", id="structures-feature-id"),
        pytest.param("score", "detections", ("points", 0, "point"), [1, "x"],
                     "points[0].point: expected [x, y] of numbers, got [1, 'x']", id="detections-point"),
        pytest.param("score", "gt", ("properties", "banff_g"), 7, "banff_g=7 outside 0-3", id="ground-truth"),
        pytest.param("sensitivity", "scene", ("instances", 0, "id"), 5, "instances[0].id: expected a string, got 5",
                     id="scene"),
        pytest.param("evaluate", "report", ("section_id",), 12, "section_id: expected a string, got 12",
                     id="score-report"),
    ],
)
def test_parse_error_names_its_file(command, role, path, value, message, section_files, tmp_path, capsys):
    files, argv = bad_number_inputs(command, section_files, tmp_path)
    doc = json.loads(files[role].read_text(encoding="utf-8"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    write_json(files[role], doc)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {files[role]}: {message}\n"


def test_spec_and_render_parse_errors_name_their_file(section_files, tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {**SCENE_SPEC, "seed": 1.5})
    assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {spec}: seed: ")
    write_json(spec, SCENE_SPEC)
    assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    scene = tmp_path / "synth-x.scene.json"
    pspec = write_json(tmp_path / "p.json", {"seed": "x"})
    argv = ["sensitivity", "--scene", str(scene), "--perturb", str(pspec), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {pspec}: seed: ")
    report = write_json(tmp_path / "r.json", {"section_id": 12})
    assert main(["render", "--scene", str(scene), "--report", str(report), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {report}: not a banffscore score report\n"
    write_json(scene, {"section_id": "s", "instances": [], "detections": [], "metadata": []})
    assert main(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {scene}: scene metadata must be an object\n"


@pytest.mark.parametrize(
    "command, role",
    [("score", "structures"), ("score", "detections"), ("score", "gt"), ("sensitivity", "scene"),
     ("sensitivity", "perturb"), ("synth", "spec"), ("evaluate", "report")],
)
def test_json_nested_too_deeply_exits_2(command, role, section_files, tmp_path, capsys):
    """Arrays nested deeper than the JSON decoder recurses raised RecursionError, exit 1."""
    if command == "synth":
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        files, argv = {}, ["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]
    else:
        files, argv = bad_number_inputs(command, section_files, tmp_path)
    path = files[role] if role in files else Path(argv[argv.index(f"--{role}") + 1])
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: not valid JSON: nested too deeply\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flags, config_text, start",
    [
        pytest.param(["--classes", "x" * 5000], None, "--classes: cell_classes: unknown cell kind 'xxx",
                     id="classes-flag"),
        pytest.param(["--section-id", "a/" + "b" * 5000], None, "section_id 'a/bbbbbbb...bbbbbbbbbb' cannot",
                     id="section-id-flag"),
        pytest.param([], "seed = " + "9" * 5000, "seed: not an integer: '99999", id="config-seed"),
        pytest.param([], "alias." + "t" * 5000 + " = bogus", "'alias.ttt...tttttttttt': unknown structure kind",
                     id="config-alias-key"),
        pytest.param([], "x" * 5000 + " = 1", "config line 1: unknown key 'xxx", id="config-unknown-key"),
    ],
)
def test_long_config_value_is_echoed_abbreviated(flags, config_text, start, section_files, tmp_path, capsys):
    structures, detections = section_files
    argv = ["score", "--structures", str(structures), "--detections", str(detections), *flags]
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text + "\n")
        argv += ["--config", str(config)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {start}") and err.count("\n") == 1
    assert len(err) < 200


def config_block(doc: dict) -> str:
    """The provenance block of an output, as canonical JSON text."""
    return json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))


class TestProvenanceGolden:
    """The exact ``config`` block each subcommand writes.  The expected text
    is pinned, so any change to a key, a value or its JSON type shows."""

    DEFAULT_BLOCK = (
        '{"cell_aliases":{"lymphocyte":"lymphocyte","monocyte":"monocyte"},'
        '"cell_classes":["lymphocyte","monocyte"],"dedup_radius":null,'
        '"min_confidence":0.5,"seed":null,"structure_aliases":{"arterial":"artery","artery":"artery",'
        '"glomerular tuft":"glomerulus","glomerulus":"glomerulus","peritubular capillary":'
        '"peritubular_capillary","ptc":"peritubular_capillary"},"tool_version":"0.1.0"}'
    )

    def test_score_default(self, section_files, tmp_path):
        structures, detections = section_files
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "sec1.score.json").read_text())
        assert config_block(doc) == self.DEFAULT_BLOCK

    def test_score_config_file_and_flag(self, section_files, tmp_path):
        structures, detections = section_files
        config = tmp_path / "run.cfg"
        config.write_text(
            "min_confidence = 0.95\ncell_classes = monocyte, lymphocyte\ndedup_radius = 3\n"
            "seed = 4\nalias.tuft = glomerulus\ncell_alias.lymph = lymphocyte\n"
        )
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        argv += ["--config", str(config), "--min-confidence", "0.25", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "o" / "sec1.score.json").read_text())
        assert config_block(doc) == (
            '{"cell_aliases":{"lymph":"lymphocyte","lymphocyte":"lymphocyte","monocyte":"monocyte"},'
            '"cell_classes":["monocyte","lymphocyte"],'
            '"dedup_radius":3.0,"min_confidence":0.25,"seed":4,"structure_aliases":{"arterial":"artery",'
            '"artery":"artery","glomerular tuft":"glomerulus","glomerulus":"glomerulus",'
            '"peritubular capillary":"peritubular_capillary","ptc":"peritubular_capillary",'
            '"tuft":"glomerulus"},"tool_version":"0.1.0"}'
        )

    def test_evaluate_summary(self, tmp_path):
        report, gt = make_report_and_gt(tmp_path, "s0", grade=0)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"report,ground_truth\n{report},{gt}\n")
        out = tmp_path / "eval"
        argv = ["evaluate", "--manifest", str(manifest), "--dedup-radius", "1.5", "--out-dir", str(out)]
        assert main(argv) == 0
        assert config_block(json.loads((out / "summary.json").read_text())) == (
            self.DEFAULT_BLOCK.replace('"dedup_radius":null', '"dedup_radius":1.5')
        )

    def test_synth_scene_metadata_and_sensitivity(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SCENE_SPEC)
        assert main(["synth", "--spec", str(spec), "--seed", "11", "--out-dir", str(tmp_path)]) == 0
        scene = json.loads((tmp_path / "synth-x.scene.json").read_text())
        assert config_block(scene["metadata"]) == self.DEFAULT_BLOCK.replace('"seed":null', '"seed":11')
        pspec = write_json(tmp_path / "p.json", {"detection_fn_prob": 0.5, "seed": 3})
        argv = ["sensitivity", "--scene", str(tmp_path / "synth-x.scene.json"), "--perturb", str(pspec)]
        argv += ["--trials", "3", "--classes", "monocyte", "--min-confidence", "1"]
        assert main(argv + ["--out-dir", str(tmp_path / "sens")]) == 0
        doc = json.loads((tmp_path / "sens" / "synth-x.sensitivity.json").read_text())
        assert config_block(doc) == (
            self.DEFAULT_BLOCK.replace('["lymphocyte","monocyte"]', '["monocyte"]')
            .replace('"min_confidence":0.5', '"min_confidence":1.0')
        )


class TestSynthGoldenBytes:
    """sha256 of every byte ``synth`` and ``sensitivity`` write for one fixed
    spec.  The scene generator's draw order and each perturbation stage's
    stream are part of the determinism contract, so these must not move.

    The spec uses all five perturbation stages, and about 40 of its 300
    background draws land inside an instance and are redrawn."""

    SCENE_SPEC = {
        "section_id": "golden",
        "canvas": [0, 0, 1200, 1200],
        "glomerulus_cells": [5, 0, 7],
        "ptc_cells": [3, 1, 0, 2, 4, 0, 1, 2],
        "artery_cells": [2, 0],
        "background_cells": 300,
        "seed": 17,
    }
    PERTURBATION = {
        "omit_instance_prob": {"glomerulus": 0.3, "peritubular_capillary": 0.2, "artery": 0.5},
        "hallucinate_instances": {
            "artery": {"count": 1, "cells_per_instance": 2},
            "peritubular_capillary": {"count": 2, "cells_per_instance": 3, "radius": [10, 20]},
        },
        "detection_fn_prob": 0.2,
        "detection_fp_count": 15,
        "jitter_sigma": 3.0,
        "seed": 5,
    }
    SHA256 = {
        "golden.scene.json": "03a7ecd4bac704220b7542ef69b3cefba25c2941cc1a1c8e57417541a0cc0989",
        "golden.gt.geojson": "3b1e6910f16e3e5922973478695115283e5a079209dc8a58a006350c8fd0f19c",
        "golden.sensitivity.json": "c7545584d0707937e40bab5ffe3c4ce7ed3589335851926de77bc6c43d649c2f",
        "golden.sensitivity.csv": "b505d53778136e8f33a74e85d1e0c6ef96613e9fd2cfadc98a41357aa071fc50",
    }

    def test_output_bytes(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.SCENE_SPEC)
        pspec = write_json(tmp_path / "p.json", self.PERTURBATION)
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 0
        argv = ["sensitivity", "--scene", str(out / "golden.scene.json"), "--perturb", str(pspec)]
        assert main(argv + ["--trials", "12", "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.SHA256}
        assert digests == self.SHA256


class TestScoreGoldenBytes:
    """sha256 of the reports ``score`` writes for one fixed section, with and
    without dedup.  The section covers every containment and dedup edge the
    grades depend on: an artery with a lumen hole, an ``other`` structure,
    points exactly on an exterior edge, a hole edge and a vertex, a point in
    two overlapping glomeruli, a same-class pair exactly 10 apart, a
    confidence tie where id string order (``d10`` < ``d9``) differs from
    numeric order, and points dropped by class and by confidence."""

    STRUCTURES = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "id": fid, "properties": {"classification": {"name": name}},
             "geometry": {"type": "Polygon", "coordinates": rings}}
            for fid, name, rings in [
                ("glom-1", "glomerulus", [square_ring(50, 50, 50)]),
                ("glom-2", "glomerulus", [square_ring(100, 100, 50)]),
                ("art-1", "artery", [square_ring(250, 50, 50), square_ring(250, 50, 20)]),
                ("ptc-1", "ptc", [[[0, 200], [60, 200], [30, 260], [0, 200]]]),
                ("tub-1", "tubule", [square_ring(450, 50, 50)]),
            ]
        ],
    }
    POINTS = [
        ("lymphocyte", [0, 0], 0.8),  # d0: glom-1 vertex, 10 from d1
        ("lymphocyte", [6, 8], 0.9),  # d1
        ("lymphocyte", [0, 30], 0.9),  # d2: glom-1 exterior edge
        ("lymphocyte", [230, 50], 0.9),  # d3: lumen (hole) edge
        ("lymphocyte", [250, 50], 0.9),  # d4: strictly inside the lumen
        ("monocyte", [300, 100], 0.7),  # d5: artery vertex
        ("lymphocyte", [75, 75], 0.95),  # d6: inside glom-1 and glom-2
        ("plasma cell", [20, 20], 1.0),  # d7: other class
        ("lymphocyte", [30, 30], 0.4),  # d8: below the confidence floor
        ("lymphocyte", [148, 120], 0.6),  # d9: glom-2; ties d10, and "d10" < "d9"
        ("lymphocyte", [153, 124], 0.6),  # d10: in no structure
        ("monocyte", [30, 220], 0.85),  # d11: ptc-1
        ("lymphocyte", [600, 600], 0.99),  # d12: in no structure
        ("lymphocyte", [450, 50], 0.9),  # d13: inside the other structure
        ("monocyte", [30, 215], 0.85),  # d14: ties d11, 5 away
    ]
    SHA256 = {
        "plain": "82bc0f8ddb207b292a5a2b3760a8a81147e6580b112cae7f6e1b8923fc37e7e4",
        "dedup-10": "22588d90d682c1f585714152958b277e33fea6228a75018202507121fd9b64ad",
    }

    def test_report_bytes(self, tmp_path):
        structures = write_json(tmp_path / "golden.geojson", self.STRUCTURES)
        points = [{"name": n, "point": p, "probability": c} for n, p, c in self.POINTS]
        detections = write_json(tmp_path / "golden.json", {"points": points})
        argv = ["score", "--structures", str(structures), "--detections", str(detections)]
        digests = {}
        for name, extra in (("plain", []), ("dedup-10", ["--dedup-radius", "10"])):
            out = tmp_path / name
            assert main(argv + extra + ["--out-dir", str(out)]) == 0
            digests[name] = hashlib.sha256((out / "golden.score.json").read_bytes()).hexdigest()
        assert digests == self.SHA256


def test_score_indexes_the_checked_ring_table(tmp_path, monkeypatch):
    """``score`` builds no vertex tuple and flattens no polygon again: the
    golden section scores to the same bytes with both ways forbidden."""
    golden = TestScoreGoldenBytes
    structures = write_json(tmp_path / "golden.geojson", golden.STRUCTURES)
    points = [{"name": n, "point": p, "probability": c} for n, p, c in golden.POINTS]
    detections = write_json(tmp_path / "golden.json", {"points": points})
    argv = ["score", "--structures", str(structures), "--detections", str(detections), "--dedup-radius", "10"]

    def forbidden(*args):
        raise AssertionError("the score command built polygons")

    monkeypatch.setattr(banffscore.geometry._EdgeTable, "polygons", forbidden)
    monkeypatch.setattr(banffscore.geometry._EdgeTable, "of", forbidden)
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "golden.score.json").read_bytes()).hexdigest()
    assert digest == golden.SHA256["dedup-10"]


@pytest.mark.parametrize("module", ["banffscore", "banffscore.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(banffscore.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", module, "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"banffscore {banffscore.__version__}"
