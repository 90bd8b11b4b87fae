"""Deterministic SVG overlays: class-colored polygons, detection points, and
per-instance count labels when a score report is supplied.

Palette (fixed):
  structures -- glomerulus #4daf4a, peritubular_capillary #377eb8,
  artery #e41a1c, other #999999
  cells -- lymphocyte #984ea3, monocyte #ff7f00, other #666666

Output bytes are a pure function of (scene, report): coordinates use fixed
two-decimal formatting, elements follow document order, and there are no
timestamps or generated ids.  Ids are the only free text written: they are
XML-escaped, characters XML cannot carry become U+FFFD, and ``--`` is split
inside the header comment, so the SVG is well-formed for any id.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from . import __version__
from .ingest import scene_canvas
from .model import INDICATORS, SectionScene
from .scoring import ScoreReport, Unscorable

STRUCTURE_COLORS: Dict[str, str] = {
    "glomerulus": "#4daf4a",
    "peritubular_capillary": "#377eb8",
    "artery": "#e41a1c",
    "other": "#999999",
}

CELL_COLORS: Dict[str, str] = {
    "lymphocyte": "#984ea3",
    "monocyte": "#ff7f00",
    "other": "#666666",
}

_POINT_RADIUS = 3.0

_NOT_XML_CHAR = re.compile("[^\t\n\r\u0020-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_chars(value: str) -> str:
    return _NOT_XML_CHAR.sub("\ufffd", value)


def _xml_text(value: str) -> str:
    return _xml_chars(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _comment_safe(value: str) -> str:
    return re.sub("-(?=-)", "- ", _xml_chars(value))


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _polygon_path(polygon) -> str:
    parts = []
    for ring in (polygon.exterior, *polygon.holes):
        cmds = [f"M {_fmt(ring[0][0])} {_fmt(ring[0][1])}"]
        cmds.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in ring[1:])
        cmds.append("Z")
        parts.append(" ".join(cmds))
    return " ".join(parts)


def _instance_counts(report: ScoreReport) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name in INDICATORS:
        detail = getattr(report, name)
        if isinstance(detail, Unscorable):
            continue
        for entry in detail.per_instance:
            counts[entry[0]] = entry[1]
    return counts


def render_svg(scene: SectionScene, report: Optional[ScoreReport] = None) -> bytes:
    """Render a scene (and optionally its score report) to SVG bytes."""
    x0, y0, x1, y1 = scene_canvas(scene)
    width, height = x1 - x0, y1 - y0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}">',
        f"<!-- banffscore {__version__} section={_comment_safe(scene.section_id)} -->",
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(width)}" height="{_fmt(height)}" '
        'fill="#ffffff" stroke="#cccccc" stroke-width="1"/>',
    ]
    lines.append('<g id="structures">')
    for inst in scene.instances:
        color = STRUCTURE_COLORS.get(inst.cls.kind, STRUCTURE_COLORS["other"])
        lines.append(
            f'<path d="{_polygon_path(inst.polygon)}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="2" fill-rule="evenodd"><title>{_xml_text(inst.id)}</title></path>'
        )
    lines.append("</g>")
    lines.append('<g id="detections">')
    dets = scene.detections
    colors = [CELL_COLORS.get(c.kind, CELL_COLORS["other"]) for c in dets.classes]
    for x, y, code in zip(dets.xs.tolist(), dets.ys.tolist(), dets.codes.tolist()):
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_POINT_RADIUS}" fill="{colors[code]}"/>')
    lines.append("</g>")
    if report is not None:
        counts = _instance_counts(report)
        lines.append('<g id="labels" font-family="monospace" font-size="16" fill="#111111">')
        for inst in scene.instances:
            if inst.id not in counts:
                continue
            cx = sum(x for x, _ in inst.polygon.exterior) / len(inst.polygon.exterior)
            cy = sum(y for _, y in inst.polygon.exterior) / len(inst.polygon.exterior)
            lines.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle">{counts[inst.id]}</text>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
