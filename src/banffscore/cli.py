"""Batch command-line front-end.

Subcommands: ``score``, ``evaluate``, ``synth``, ``sensitivity``, ``render``.
Exit codes: 0 success, 2 input/validation error, 1 internal failure.
All outputs are computed in memory first, then written to temp files that
are renamed into place only when all are written; a failed write exits 2
naming the path and removes the temp files, so no partial files are left.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import os
import sys
import tempfile
import traceback
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from . import __version__
from .config import RunConfig, merge_config, parse_config_text
from .errors import BanffScoreError, EmptyMatrix, echo
from .evaluation import accumulate, confusion_to_csv, summarize, summary_to_dict
from .ingest import (
    _structure_table,
    canonical_json_bytes,
    load_json_bytes,
    parse_detections,
    parse_ground_truth,
    read_scene,
    write_ground_truth,
    write_scene,
)
from .model import INDICATORS
from .render import render_svg
from .scoring import _report_doc, _score_table, report_from_dict
from .synth import PerturbationSpec, SceneSpec, generate_scene, sensitivity_run

Output = Tuple[Path, bytes]
T = TypeVar("T")


# An output's temp file is "." + its name + "." + 8 random characters +
# ".tmp" (see _write_all), and a file name holds at most 255 bytes on
# common file systems.  ".sensitivity.json" is the longest suffix a section
# id gets.
_TEMP_NAME = ".{}.XXXXXXXX.tmp"
_LONGEST_SECTION_OUTPUT = "{}.sensitivity.json"
_NAME_MAX = 255


def _write_all(outputs: List[Output]) -> None:
    """Write every output or none: refuse a directory in an output's place,
    write every output to a temp file beside it, then rename each over it."""
    temps: List[str] = []
    try:
        for path, _ in outputs:
            if path.is_dir():
                raise BanffScoreError(f"cannot write {path}: it is a directory")
        for path, data in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append(tmp_name)
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        for (path, _), tmp_name in zip(outputs, temps):
            os.replace(tmp_name, path)
    except BaseException as exc:
        for tmp_name in temps:
            with suppress(OSError):  # a renamed one is gone already
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise BanffScoreError(f"cannot write {path}: {exc}") from None
        raise


def _file_name(section_id: str) -> str:
    """The section id, checked to be usable as a file name inside --out-dir."""
    if (
        section_id in ("", ".", "..")
        or any(c in "/\\" or c < " " for c in section_id)
        or section_id.splitlines() != [section_id]
    ):
        raise BanffScoreError(
            f"section_id {echo(section_id)} cannot name an output file (it is empty, '.' or '..', "
            "or contains '/', '\\', a control character or a line break)"
        )
    try:
        os.fsencode(section_id)
    except UnicodeEncodeError:  # a lone surrogate, which JSON text can hold
        raise BanffScoreError(f"section_id {echo(section_id)} cannot name an output file (it is not "
                              "valid Unicode text)") from None
    _check_name_length(_LONGEST_SECTION_OUTPUT.format(section_id), f"section_id {echo(section_id)}")
    return section_id


def _check_name_length(name: str, what: str) -> None:
    """Raise naming ``what`` when the temp file of an output named ``name``
    would not fit in a file name; run before anything is written."""
    size = len(os.fsencode(_TEMP_NAME.format(name)))
    if size > _NAME_MAX:
        raise BanffScoreError(
            f"{what} is too long to name an output file (a temporary file name would be {size} bytes, "
            f"over {_NAME_MAX})"
        )


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise BanffScoreError(f"file not found: {path}")
    return path


def _read_text(path: Path) -> str:
    """The text of the file at ``path``, which must be UTF-8."""
    try:
        return _require_file(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BanffScoreError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_document(path: Path, parse: Callable[[bytes], T]) -> T:
    """``parse`` of the bytes of the data file at ``path``; a package error
    it raises is raised again with its message prefixed by the path."""
    data = _require_file(path).read_bytes()
    try:
        return parse(data)
    except BanffScoreError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    file_overrides = None
    if args.config is not None:
        file_overrides = parse_config_text(_read_text(Path(args.config)))
    flag_overrides = {
        "min_confidence": args.min_confidence,
        "cell_classes": None if args.classes is None else tuple(args.classes.split(",")),
        "dedup_radius": args.dedup_radius,
        "seed": getattr(args, "seed", None),
        "section_id": getattr(args, "section_id", None),
    }
    return merge_config(file_overrides, flag_overrides)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_score(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    structures_path = _require_file(Path(args.structures))
    detections_path = _require_file(Path(args.detections))
    gt_path = _require_file(Path(args.gt)) if args.gt else None
    section_id = _file_name(
        structures_path.stem if config.section_id is None else config.section_id
    )
    # the instances stay the parser's checked ring table: no Instance or vertex tuple is built
    ids, kinds, edges = _read_document(structures_path, lambda data: _structure_table(data, config.structure_aliases))
    detections = _read_document(
        detections_path,
        lambda data: parse_detections(data, min_confidence=0.0, classes=None, aliases=config.cell_aliases),
    )
    doc = _report_doc(_score_table(section_id, ids, kinds, edges, detections, config), templated=True)
    if gt_path is not None:
        gt = _read_document(gt_path, parse_ground_truth)
        doc["ground_truth"] = {name: getattr(gt, name) for name in INDICATORS}
    out_dir = Path(args.out_dir)
    _write_all([(out_dir / f"{section_id}.score.json", canonical_json_bytes(doc))])
    return 0


def _read_manifest(path: Path) -> List[Tuple[Path, Path]]:
    """The (report, ground truth) pairs a manifest lists, resolved against
    its directory.  Rows whose fields are all blank and rows whose first
    field starts with ``#`` are skipped; the first other row may be the
    ``report,ground_truth`` header."""
    rows: List[Tuple[Path, Path]] = []
    base = path.parent
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        listed = ((i, [c.strip() for c in row]) for i, row in enumerate(reader))
        listed = ((i, row) for i, row in listed if any(row) and not row[0].startswith("#"))
        for n, (i, row) in enumerate(listed):
            if n == 0 and [c.lower() for c in row[:2]] == ["report", "ground_truth"]:
                continue
            if len(row) < 2:
                raise BanffScoreError(f"{path}: manifest row {i + 1}: expected 'report,ground_truth'")
            for name, field in zip(("report", "ground_truth"), row):
                if not field:
                    raise BanffScoreError(f"{path}: manifest row {i + 1}: the {name} field is blank")
            rows.append((base / row[0], base / row[1]))
    except csv.Error as exc:
        raise BanffScoreError(f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise BanffScoreError(f"{path}: manifest lists no report/ground-truth pairs")
    return rows


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    manifest = _read_manifest(Path(args.manifest))
    pairs: Dict[str, list] = {name: [] for name in INDICATORS}
    for report_path, gt_path in manifest:
        report = _read_document(report_path, lambda data: report_from_dict(load_json_bytes(data)))
        gt = _read_document(gt_path, parse_ground_truth)
        for name in INDICATORS:
            pairs[name].append((report.grade(name), getattr(gt, name)))
    comment = f"banffscore {__version__} rows=expert columns=predicted"
    outputs: List[Output] = []
    out_dir = Path(args.out_dir)
    summary_doc: dict = {
        "schema": "banffscore.evaluation/1", "config": config.snapshot(), "indicators": {}
    }
    for name in INDICATORS:
        matrix = accumulate(pairs[name], name)
        try:
            summary = summarize(matrix)
        except EmptyMatrix:
            summary = None
        summary_doc["indicators"][name] = summary_to_dict(matrix, summary)
        outputs.append((out_dir / f"confusion_{name}.csv", confusion_to_csv(matrix, comment)))
    outputs.append((out_dir / "summary.json", canonical_json_bytes(summary_doc)))
    _write_all(outputs)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    spec = _read_document(Path(args.spec), lambda data: SceneSpec.from_dict(load_json_bytes(data)))
    if config.seed is not None:
        spec = replace(spec, seed=config.seed)
    stem = _file_name(spec.section_id)
    scene, gt = generate_scene(spec)
    scene.metadata["config"] = config.snapshot()
    out_dir = Path(args.out_dir)
    _write_all(
        [
            (out_dir / f"{stem}.scene.json", write_scene(scene)),
            (out_dir / f"{stem}.gt.geojson", write_ground_truth(gt)),
        ]
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    scene = _read_document(Path(args.scene), read_scene)
    stem = _file_name(scene.section_id)
    pspec = _read_document(Path(args.perturb), lambda data: PerturbationSpec.from_dict(load_json_bytes(data)))
    if config.seed is not None:
        pspec = replace(pspec, seed=config.seed)
    report = sensitivity_run(scene, pspec, trials=args.trials, config=config)
    doc = {
        "schema": "banffscore.sensitivity/1",
        "config": config.snapshot(),
        "section_id": scene.section_id,
        "perturbation": pspec.to_dict(),
        **report.to_dict(),
    }
    comment = f"banffscore {__version__} section={scene.section_id} trials={report.trials}"
    out_dir = Path(args.out_dir)
    _write_all(
        [
            (out_dir / f"{stem}.sensitivity.json", canonical_json_bytes(doc)),
            (out_dir / f"{stem}.sensitivity.csv", report.to_csv(comment)),
        ]
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    scene_path = _require_file(Path(args.scene))
    svg_name = f"{scene_path.stem}.svg"
    _check_name_length(svg_name, f"scene file name {echo(scene_path.name)}")
    scene = _read_document(scene_path, read_scene)
    report = None
    if args.report:
        report = _read_document(Path(args.report), lambda data: report_from_dict(load_json_bytes(data)))
    svg = render_svg(scene, report)
    out_dir = Path(args.out_dir)
    _write_all([(out_dir / svg_name, svg)])
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (key = value lines)")
    sub.add_argument("--out-dir", default=".", help="output directory (default: .)")
    sub.add_argument("--min-confidence", type=float, default=None, help="detection confidence floor")
    sub.add_argument("--classes", default=None, help="comma-separated cell classes to count")
    sub.add_argument("--dedup-radius", type=float, default=None, help="same-class suppression radius, px")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banffscore",
        description=f"Banff lesion grading ({', '.join(INDICATORS)}) from structure and cell annotations",
    )
    parser.add_argument("--version", action="version", version=f"banffscore {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    score = subs.add_parser("score", help="grade one section from annotation files")
    score.add_argument("--structures", required=True, help="GeoJSON structure annotations")
    score.add_argument("--detections", required=True, help="detection JSON")
    score.add_argument("--gt", default=None, help="optional expert-grade GeoJSON to embed")
    score.add_argument("--section-id", default=None, help="section id (default: structures stem)")
    _add_config_flags(score)
    score.set_defaults(func=_cmd_score)

    evaluate = subs.add_parser("evaluate", help="confusion matrices from a report/gt manifest")
    evaluate.add_argument("--manifest", required=True, help="CSV of report,ground_truth path pairs")
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    synth = subs.add_parser("synth", help="generate a synthetic scene from a spec")
    synth.add_argument("--spec", required=True, help="scene spec JSON")
    synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_config_flags(synth)
    synth.set_defaults(func=_cmd_synth)

    sensitivity = subs.add_parser("sensitivity", help="grade-flip statistics under perturbation")
    sensitivity.add_argument("--scene", required=True, help="scene JSON (from synth or export)")
    sensitivity.add_argument("--perturb", required=True, help="perturbation spec JSON")
    sensitivity.add_argument("--trials", type=int, default=1000, help="number of trials")
    sensitivity.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_config_flags(sensitivity)
    sensitivity.set_defaults(func=_cmd_sensitivity)

    render = subs.add_parser("render", help="SVG overlay of a scene (and optional report)")
    render.add_argument("--scene", required=True, help="scene JSON")
    render.add_argument("--report", default=None, help="score report JSON for count labels")
    render.add_argument("--out-dir", default=".", help="output directory (default: .)")
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code.  Cyclic garbage collection
    is paused while it runs (and resumed only if it was on): its JSON trees,
    columns, instances and reports hold no reference cycles, so reference
    counting frees them, and collection passes over them reclaim nothing."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BanffScoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        traceback.print_exc()
        return 1
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
