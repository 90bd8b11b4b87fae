"""Seeded benchmark inputs whose truth is known by construction.

Sections (the ``biopsy`` and ``slide`` workloads)
-------------------------------------------------
Every structure is a star-shaped ring around its centre: vertex k sits at
angle ``2*pi*k/n + phase`` and radius ``r_k`` in ``[0.9 R, R]``.  Each edge
then stays at least ``min(r_k) * cos(pi/n)`` from the centre, so the disc of
that radius lies inside the ring and the disc of radius ``R`` contains it.
Arteries get a lumen hole of the same kind, inside the disc of radius
``LUMEN_SHARE[1] * R``.

Structures sit one per square slot of a grid.  A slot is wider than any ring
plus a margin, so rings never overlap and the slot a point falls in names
the only ring that can contain it.

True cells are distinct sites of a lattice with bounded jitter, so any two
true cells are more than ``spacing - 2*sqrt(2)*jitter`` apart.  That keeps
them out of each other's dedup radius on the slide.  The cells of a planted
count lie in the inscribed disc (for arteries, the annulus between lumen and
wall) shrunk by a margin, so they lie strictly inside their ring.  Background
cells lie farther than ``R + margin`` from the centre of their slot's ring,
so they lie outside every ring.

Noise detections (other cell classes, and lymphocytes or monocytes with
confidence below 0.5) are scattered around true cells, so many of them fall
inside rings; scoring must drop them.  On the slide, some true cells get a
same-class duplicate within half the dedup radius, with lower confidence;
dedup must drop it.

The robustness workload instead feeds the program's own ``synth``; its spec
holds the planted counts, so the grades are known the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

LYMPHOCYTE = "lymphocyte"
MONOCYTE = "monocyte"
GLOMERULUS = "glomerulus"
PTC = "peritubular_capillary"
ARTERY = "artery"
OTHER = "other"
SCORABLE = (GLOMERULUS, PTC, ARTERY)
INDICATOR_KIND = {"g": GLOMERULUS, "ptc": PTC, "v": ARTERY}

MIN_CONFIDENCE = 0.5  # the CLI default
DEDUP_RADIUS = 8.0  # the slide workload's --dedup-radius
MARGIN = 0.5  # px kept clear between a cell and a ring
SLOT_PAD = 4.0  # px kept clear between a ring and its slot's edge
RADIUS_SHARE = (0.9, 1.0)  # vertex radius as a share of R
LUMEN_SHARE = (0.30, 0.35)  # lumen vertex radius as a share of the artery's R
OTHER_CELL_NAMES = ("neutrophil", "plasma cell", "eosinophil")


@dataclass(frozen=True)
class StructureKind:
    label: str  # annotation label written to the GeoJSON
    kind: str  # the kind it maps to, or OTHER
    prefix: str  # instance id prefix
    count: int
    vertices: Tuple[int, int]
    radius: Tuple[float, float]
    lumen_vertices: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class SectionShape:
    kinds: Tuple[StructureKind, ...]
    true_cells: int  # planted plus background, the same on every seed
    other_class_share: float  # of all detections
    low_confidence_share: float  # of all detections
    duplicate_share: float  # of true cells
    spacing: float  # lattice pitch of true cells, px
    jitter: float  # max offset of a true cell from its site, per axis


BIOPSY = SectionShape(
    kinds=(
        StructureKind("Glomerulus", GLOMERULUS, "glom", 40, (96, 192), (80.0, 120.0)),
        StructureKind("PTC", PTC, "ptc", 300, (16, 32), (16.0, 28.0)),
        StructureKind("Artery", ARTERY, "art", 6, (48, 64), (60.0, 90.0), (16, 24)),
        StructureKind("Tubule", OTHER, "tub", 20, (24, 48), (30.0, 50.0)),
    ),
    true_cells=3250,
    other_class_share=0.15,
    low_confidence_share=0.20,
    duplicate_share=0.0,
    spacing=3.0,
    jitter=0.3,
)

SLIDE = SectionShape(
    kinds=(
        StructureKind("Glomerulus", GLOMERULUS, "glom", 60, (32, 64), (80.0, 120.0)),
        StructureKind("PTC", PTC, "ptc", 2700, (5, 8), (16.0, 28.0)),
        StructureKind("Artery", ARTERY, "art", 15, (24, 32), (60.0, 90.0), (12, 16)),
        StructureKind("Tubule", OTHER, "tub", 225, (6, 10), (30.0, 50.0)),
    ),
    true_cells=35500,
    other_class_share=0.15,
    low_confidence_share=0.20,
    duplicate_share=0.10,
    spacing=9.0,
    jitter=0.25,
)


# ---------------------------------------------------------------------------
# grading rules, restated here so the truth does not come from the program

def grade_g(counts: List[int]) -> Optional[int]:
    if not counts:
        return None
    rho = Fraction(sum(1 for c in counts if c > 3), len(counts))
    if rho == 0:
        return 0
    if rho < Fraction(1, 4):
        return 1
    return 2 if rho <= Fraction(1, 2) else 3


def grade_max(counts: List[int]) -> Optional[int]:
    if not counts:
        return None
    m = max(counts)
    return 0 if m == 0 else 1 if m <= 4 else 2 if m <= 10 else 3


def grades_of(planted: Dict[str, Dict[str, int]]) -> Dict[str, Optional[int]]:
    return {
        "g": grade_g(list(planted[GLOMERULUS].values())),
        "ptc": grade_max(list(planted[PTC].values())),
        "v": grade_max(list(planted[ARTERY].values())),
    }


def _target_grades(rng: np.random.Generator) -> Dict[str, int]:
    """g and v take any grade; ptc takes 2 or 3.  Below 2 the grade caps
    every capillary at one to four cells, or none, and capillaries are most
    of the instances: each seed would then cost a different amount to score."""
    return {"g": int(rng.integers(0, 4)), "ptc": int(rng.integers(2, 4)), "v": int(rng.integers(0, 4))}


def _max_count_for(grade: int, rng: np.random.Generator) -> int:
    lo, hi = ((0, 0), (1, 4), (5, 10), (11, 14))[grade]
    return int(rng.integers(lo, hi + 1))


def _inflamed_for(grade: int, n: int, rng: np.random.Generator) -> int:
    """Number of inflamed glomeruli out of n that gives this g grade."""
    quarter_lo = -(-n // 4)  # smallest k with k/n >= 1/4
    lo, hi = ((0, 0), (1, quarter_lo - 1), (quarter_lo, n // 2), (n // 2 + 1, n))[grade]
    return int(rng.integers(lo, max(lo, hi) + 1))


# ---------------------------------------------------------------------------
# sections

@dataclass
class Section:
    """One generated section: file bytes plus the truth they were built from."""

    section_id: str
    structures: bytes
    detections: bytes
    ground_truth: bytes
    planted: Dict[str, Dict[str, int]]  # kind -> instance id -> counted cells
    grades: Dict[str, Optional[int]]
    n_background: int
    n_kept: int  # after the class and confidence filter
    n_duplicates: int  # same-class copies dedup must drop


def _ring(rng, cx, cy, radius, n, share):
    phase = rng.uniform(0.0, 2.0 * math.pi / n)
    radii = radius * rng.uniform(share[0], share[1], n)
    angles = phase + 2.0 * math.pi * np.arange(n) / n
    xs = np.round(cx + radii * np.cos(angles), 3)
    ys = np.round(cy + radii * np.sin(angles), 3)
    inscribed = float(radii.min()) * math.cos(math.pi / n)
    return [[float(x), float(y)] for x, y in zip(xs, ys)], inscribed


def _stratified(lo: int, hi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n integers spread evenly over [lo, hi] in random order, so every seed
    draws the same multiset of ring sizes and costs the same to parse."""
    return rng.permutation(np.round(np.linspace(lo, hi, n)).astype(int))


def _sites_in(cx, cy, r_lo, r_hi, spacing, slack):
    """Lattice sites (ix, iy) whose un-jittered point lies in the annulus
    r_lo + slack <= d <= r_hi - slack around (cx, cy)."""
    ix = np.arange(math.floor((cx - r_hi) / spacing), math.ceil((cx + r_hi) / spacing) + 1)
    iy = np.arange(math.floor((cy - r_hi) / spacing), math.ceil((cy + r_hi) / spacing) + 1)
    gx, gy = np.meshgrid(ix, iy, indexing="ij")
    d = np.hypot(gx * spacing - cx, gy * spacing - cy)
    ok = (d <= r_hi - slack) & (d >= r_lo + slack)
    return gx[ok], gy[ok]


def generate_section(shape: SectionShape, seed, section_id: str) -> Section:
    rng = np.random.default_rng(seed)
    s, jit = shape.spacing, shape.jitter
    slack = MARGIN + jit * math.sqrt(2.0)
    r_max = max(k.radius[1] for k in shape.kinds)
    slot = 2.0 * (r_max + SLOT_PAD)
    n_inst = sum(k.count for k in shape.kinds)
    cols = math.ceil(math.sqrt(n_inst))
    rows = math.ceil(n_inst / cols)
    slot_of = rng.permutation(cols * rows)[:n_inst]
    targets = _target_grades(rng)

    features = []
    centres = np.full((cols * rows, 3), np.nan)  # per slot: cx, cy, R
    regions = []  # (kind, id, cx, cy, r_lo, r_hi) for planting
    k_slot = 0
    for sk in shape.kinds:
        nverts = _stratified(sk.vertices[0], sk.vertices[1], sk.count, rng)
        lverts = (
            _stratified(sk.lumen_vertices[0], sk.lumen_vertices[1], sk.count, rng)
            if sk.lumen_vertices
            else None
        )
        for j in range(sk.count):
            radius = rng.uniform(*sk.radius)
            sl = int(slot_of[k_slot])
            k_slot += 1
            free = slot / 2.0 - radius - SLOT_PAD
            cx = (sl % cols + 0.5) * slot + rng.uniform(-free, free)
            cy = (sl // cols + 0.5) * slot + rng.uniform(-free, free)
            centres[sl] = (cx, cy, radius)
            exterior, inscribed = _ring(rng, cx, cy, radius, int(nverts[j]), RADIUS_SHARE)
            rings = [exterior + [exterior[0]]]
            r_lo = 0.0
            if lverts is not None:
                lumen, _ = _ring(rng, cx, cy, radius, int(lverts[j]), LUMEN_SHARE)
                rings.append(lumen + [lumen[0]])
                r_lo = LUMEN_SHARE[1] * radius
            iid = f"{sk.prefix}-{j + 1}"
            features.append(
                {
                    "type": "Feature",
                    "id": iid,
                    "properties": {"classification": {"name": sk.label}},
                    "geometry": {"type": "Polygon", "coordinates": rings},
                }
            )
            regions.append((sk.kind, iid, cx, cy, r_lo, inscribed))

    # planted counts: sites available per instance, then counts per target grade
    sites = [_sites_in(cx, cy, r_lo, r_hi, s, slack) for _, _, cx, cy, r_lo, r_hi in regions]
    capacity = np.array([len(sx) for sx, _ in sites])
    want = np.zeros(len(regions), dtype=int)
    kinds = np.array([r[0] for r in regions])
    glom = np.nonzero(kinds == GLOMERULUS)[0]
    k_inflamed = _inflamed_for(targets["g"], len(glom), rng)
    inflamed = set(rng.choice(glom, size=k_inflamed, replace=False).tolist()) if len(glom) else set()
    for i in glom:
        want[i] = rng.integers(4, 10) if i in inflamed else rng.integers(0, 4)
    for kind, name in ((PTC, "ptc"), (ARTERY, "v")):
        idx = np.nonzero(kinds == kind)[0]
        if not len(idx):
            continue
        m = _max_count_for(targets[name], rng)
        want[idx] = rng.integers(0, min(m, 3) + 1, size=len(idx))
        want[idx[np.argmax(capacity[idx])]] = m
    other = np.nonzero(kinds == OTHER)[0]
    want[other] = rng.integers(0, 5, size=len(other))
    counts = np.minimum(want, capacity)

    cell_xy: List[np.ndarray] = []
    planted: Dict[str, Dict[str, int]] = {kind: {} for kind in SCORABLE}
    for (kind, iid, *_), (sx, sy), c in zip(regions, sites, counts):
        if kind != OTHER:
            planted[kind][iid] = int(c)
        if c:
            pick = rng.choice(len(sx), size=int(c), replace=False)
            cell_xy.append(np.stack([sx[pick] * s, sy[pick] * s], axis=1))
    n_planted = int(counts.sum())
    background = shape.true_cells - n_planted
    if background < 0:
        raise ValueError(f"{section_id}: {n_planted} planted cells exceed true_cells")

    # background: distinct lattice sites well outside their slot's ring
    nx_sites, ny_sites = int(cols * slot / s), int(rows * slot / s)
    bg_ids = np.empty(0, dtype=np.int64)
    while len(bg_ids) < background:
        draw = rng.integers(0, nx_sites * ny_sites, size=2 * background + 16)
        pts = np.stack([(draw // ny_sites) * s, (draw % ny_sites) * s], axis=1)
        col = np.minimum((pts[:, 0] // slot).astype(int), cols - 1)
        row = np.minimum((pts[:, 1] // slot).astype(int), rows - 1)
        c = centres[row * cols + col]
        d = np.hypot(pts[:, 0] - c[:, 0], pts[:, 1] - c[:, 1])
        outside = np.isnan(c[:, 2]) | (d > c[:, 2] + slack)
        merged = np.concatenate([bg_ids, draw[outside]])
        _, first = np.unique(merged, return_index=True)
        bg_ids = merged[np.sort(first)]
    bg_ids = bg_ids[:background]
    cell_xy.append(np.stack([(bg_ids // ny_sites) * s, (bg_ids % ny_sites) * s], axis=1))

    n_true = shape.true_cells
    true_xy = np.concatenate(cell_xy) + rng.uniform(-jit, jit, size=(n_true, 2))
    true_cls = rng.integers(0, 2, size=n_true)
    true_conf = np.round(rng.uniform(0.6, 1.0, size=n_true), 4)

    n_dup = int(round(shape.duplicate_share * n_true))
    dup_of = rng.choice(n_true, size=n_dup, replace=False)
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n_dup)
    length = rng.uniform(0.5, DEDUP_RADIUS / 2.0, size=n_dup)
    dup_xy = true_xy[dup_of] + np.stack([length * np.cos(angle), length * np.sin(angle)], axis=1)
    dup_conf = np.round(true_conf[dup_of] - rng.uniform(0.02, 0.1, size=n_dup), 4)

    n_signal = n_true + n_dup
    noise_share = shape.other_class_share + shape.low_confidence_share
    n_total = int(round(n_signal / (1.0 - noise_share)))
    n_other = int(round(shape.other_class_share * n_total))
    n_low = n_total - n_signal - n_other
    near = rng.integers(0, n_true, size=n_other + n_low)
    noise_xy = true_xy[near] + rng.normal(0.0, 3.0, size=(n_other + n_low, 2))
    other_names = rng.integers(0, len(OTHER_CELL_NAMES), size=n_other)
    other_conf = np.round(rng.uniform(0.3, 1.0, size=n_other), 4)
    low_cls = rng.integers(0, 2, size=n_low)
    low_conf = np.round(rng.uniform(0.0, 0.49, size=n_low), 4)

    names = (
        [(LYMPHOCYTE, MONOCYTE)[c] for c in true_cls]
        + [(LYMPHOCYTE, MONOCYTE)[c] for c in true_cls[dup_of]]
        + [OTHER_CELL_NAMES[c] for c in other_names]
        + [(LYMPHOCYTE, MONOCYTE)[c] for c in low_cls]
    )
    xy = np.concatenate([true_xy, dup_xy, noise_xy])
    conf = np.concatenate([true_conf, dup_conf, other_conf, low_conf])
    order = rng.permutation(len(names))
    xs, ys, ps = xy[order, 0].tolist(), xy[order, 1].tolist(), conf[order].tolist()
    # one formatted string per point keeps generation's memory below the
    # program's; json.dumps writes floats with repr() too
    points = ",".join(
        f'{{"name":"{names[i]}","point":[{x!r},{y!r}],"probability":{p!r}}}'
        for i, x, y, p in zip(order.tolist(), xs, ys, ps)
    )

    grades = grades_of(planted)
    gt_props = {"section_id": section_id}
    gt_props.update({f"banff_{k}": v for k, v in grades.items() if v is not None})
    return Section(
        section_id=section_id,
        structures=_dump({"type": "FeatureCollection", "features": features}),
        detections=f'{{"points":[{points}]}}'.encode("utf-8"),
        ground_truth=_dump({"type": "FeatureCollection", "features": [], "properties": gt_props}),
        planted=planted,
        grades=grades,
        n_background=background,
        n_kept=n_signal,
        n_duplicates=n_dup,
    )


def _dump(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# robustness: a scene spec for the program's own generator

@dataclass
class RobustnessInputs:
    scene_spec: bytes
    perturbation: bytes
    planted: Dict[str, Dict[str, int]]
    grades: Dict[str, Optional[int]]
    section_id: str


def generate_robustness(
    seed, section_id: str, n_glom: int = 25, n_ptc: int = 280, n_artery: int = 20, cells: int = 8500
) -> RobustnessInputs:
    """A spec with ``cells`` cells in all, planted plus background."""
    rng = np.random.default_rng(seed)
    targets = _target_grades(rng)
    glom = rng.integers(0, 4, size=n_glom)
    inflamed = rng.choice(n_glom, size=_inflamed_for(targets["g"], n_glom, rng), replace=False)
    glom[inflamed] = rng.integers(4, 10, size=len(inflamed))
    per_kind = {GLOMERULUS: glom.tolist()}
    for kind, name, n in ((PTC, "ptc", n_ptc), (ARTERY, "v", n_artery)):
        m = _max_count_for(targets[name], rng)
        counts = rng.integers(0, min(m, 3) + 1, size=n)
        counts[int(rng.integers(0, n))] = m
        per_kind[kind] = counts.tolist()
    prefix = {GLOMERULUS: "glom", PTC: "ptc", ARTERY: "art"}
    planted = {
        kind: {f"{prefix[kind]}-{j + 1}": int(c) for j, c in enumerate(counts)}
        for kind, counts in per_kind.items()
    }
    spec = {
        "section_id": section_id,
        "canvas": [0.0, 0.0, 7000.0, 7000.0],
        "glomerulus_cells": per_kind[GLOMERULUS],
        "ptc_cells": per_kind[PTC],
        "artery_cells": per_kind[ARTERY],
        "background_cells": cells - sum(sum(c) for c in per_kind.values()),
        "seed": int(rng.integers(0, 2**31)),
    }
    perturbation = {
        "omit_instance_prob": {GLOMERULUS: 0.1, PTC: 0.05, ARTERY: 0.1},
        "hallucinate_instances": {GLOMERULUS: {"count": 1, "cells_per_instance": 6}},
        "detection_fn_prob": 0.1,
        "detection_fp_count": 50,
        "jitter_sigma": 2.0,
        "seed": int(rng.integers(0, 2**31)),
    }
    return RobustnessInputs(
        scene_spec=_dump(spec),
        perturbation=_dump(perturbation),
        planted=planted,
        grades=grades_of(planted),
        section_id=section_id,
    )


# ---------------------------------------------------------------------------
# brute-force containment, independent of the program's geometry

def ring_crossings(ring: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Even-odd crossing parity of a ray to +x, for every point at once."""
    x1, y1 = ring[:, 0][:, None], ring[:, 1][:, None]
    x2, y2 = np.roll(ring[:, 0], -1)[:, None], np.roll(ring[:, 1], -1)[:, None]
    straddle = (y1 > ys) != (y2 > ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
    return (np.count_nonzero(straddle & (xs < x_at), axis=0) % 2) == 1


def brute_force_counts(structures: bytes, detections: bytes, dedup_radius: Optional[float] = None):
    """Per-instance counts of the detections scoring keeps, by exhaustive
    containment.  Also returns how many kept cells fall in no ring, and how
    many were kept."""
    features = json.loads(structures)["features"]
    points = json.loads(detections)["points"]
    kept = [
        p for p in points
        if p["name"] in (LYMPHOCYTE, MONOCYTE) and p["probability"] >= MIN_CONFIDENCE
    ]
    if dedup_radius is not None:
        kept = _brute_dedup(kept, dedup_radius)
    xs = np.array([p["point"][0] for p in kept])
    ys = np.array([p["point"][1] for p in kept])
    inside_any = np.zeros(len(kept), dtype=bool)
    counts: Dict[str, int] = {}
    for f in features:
        rings = [np.array(r[:-1], dtype=float) for r in f["geometry"]["coordinates"]]
        inside = ring_crossings(rings[0], xs, ys)
        for hole in rings[1:]:
            inside &= ~ring_crossings(hole, xs, ys)
        counts[f["id"]] = int(inside.sum())
        inside_any |= inside
    return counts, int((~inside_any).sum()), len(kept)


def _brute_dedup(points: List[dict], radius: float) -> List[dict]:
    """Greedy same-class suppression, highest confidence first, by distance
    checks against every point kept so far."""
    order = sorted(range(len(points)), key=lambda i: (-points[i]["probability"], i))
    kept_xy = {name: np.empty((len(points), 2)) for name in (LYMPHOCYTE, MONOCYTE)}
    n_kept = dict.fromkeys(kept_xy, 0)
    keep = set()
    for i in order:
        name = points[i]["name"]
        x, y = points[i]["point"]
        prior = kept_xy[name][: n_kept[name]]
        if (np.hypot(prior[:, 0] - x, prior[:, 1] - y) <= radius).any():
            continue
        kept_xy[name][n_kept[name]] = (x, y)
        n_kept[name] += 1
        keep.add(i)
    return [p for i, p in enumerate(points) if i in keep]
