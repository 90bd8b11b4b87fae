"""Seeded synthetic scenes with grades known by construction, plus error injection.

Scenes are built from explicit per-instance planted cell counts, so the
ground-truth grades come straight from the grading rules applied to those
counts -- a path independent of the geometry pipeline, which the test suite
cross-checks against it.  Instances are convex polygons (randomized 12-24-gon
approximations of ellipses) placed without overlap via bounding-circle
rejection sampling; convexity keeps uniform interior sampling cheap and
grades depend only on containment counts, not boundary realism.

Perturbations run in a fixed order -- instance omission, instance
hallucination, detection false-negative dropout, false-positive insertion,
coordinate jitter -- because the operations do not commute; the order
mirrors pipeline causality (segmentation errors precede detection errors).
Each stage and each sensitivity trial draws from its own stream derived via
:func:`banffscore.seeds.derive_seed`.  Jittered detections may leave their
instance; there is deliberately no clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .config import RunConfig
from .errors import ConfigError, PlacementFailure
from .geometry import Point, Polygon, build_index, point_in_polygon
from .ingest import as_number, checked_canvas, checked_integer, is_finite, is_int, scene_canvas
from .model import (
    ARTERY,
    GLOMERULUS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    SCORABLE_STRUCTURE_KINDS,
    CellClass,
    Detection,
    DetectionTable,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)
from .scoring import (
    GLOMERULUS_CELL_THRESHOLD,
    ScoreReport,
    Unscorable,
    grade_from_inflamed_fraction,
    grade_from_max_count,
    score_section,
)
from .seeds import derive_seed

DEFAULT_RADIUS_RANGES: Dict[str, Tuple[float, float]] = {
    GLOMERULUS: (90.0, 150.0),
    PERITUBULAR_CAPILLARY: (16.0, 28.0),
    ARTERY: (50.0, 90.0),
}

_PLACEMENT_ATTEMPTS = 500
_PLACEMENT_MARGIN = 4.0

# Spec values arrive from JSON.  They are checked on construction, so a bad
# value is a ConfigError naming its field, never a traceback, a silent
# truncation (1.7 cells) or a stage that does nothing (an unknown FP class).


def _count(name: str, value) -> int:
    if not (is_int(value) and value >= 0):
        raise ConfigError(f"{name}: expected an integer >= 0, got {value!r}")
    return checked_integer(value, name, ConfigError)


def _check_seed(value) -> None:
    if not is_int(value):
        raise ConfigError(f"seed: expected an integer, got {value!r}")


def _radius_range(name: str, value) -> Tuple[float, float]:
    is_pair = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_finite, value))
    if not (is_pair and 0 < value[0] <= value[1]):
        raise ConfigError(f"{name}: expected [min, max] with 0 < min <= max, got {value!r}")
    return (as_number(value[0]), as_number(value[1]))


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic section.  The cell-count lists fix the number
    of instances per class and the number of cells planted in each."""

    section_id: str = "synthetic"
    canvas: Tuple[float, float, float, float] = (0.0, 0.0, 4096.0, 4096.0)
    glomerulus_cells: Tuple[int, ...] = ()
    ptc_cells: Tuple[int, ...] = ()
    artery_cells: Tuple[int, ...] = ()
    background_cells: int = 0
    glomerulus_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[GLOMERULUS]
    ptc_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[PERITUBULAR_CAPILLARY]
    artery_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[ARTERY]
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.section_id, str):
            raise ConfigError(f"section_id: expected a string, got {self.section_id!r}")
        object.__setattr__(self, "canvas", checked_canvas(self.canvas, "canvas", ConfigError))
        for name in ("glomerulus_cells", "ptc_cells", "artery_cells"):
            counts = getattr(self, name)
            if not isinstance(counts, (list, tuple)):
                raise ConfigError(f"{name}: expected a list of integers >= 0, got {counts!r}")
            object.__setattr__(
                self, name, tuple(_count(f"{name}[{i}]", c) for i, c in enumerate(counts))
            )
        for name in ("glomerulus_radius", "ptc_radius", "artery_radius"):
            object.__setattr__(self, name, _radius_range(name, getattr(self, name)))
        object.__setattr__(self, "background_cells", _count("background_cells", self.background_cells))
        _check_seed(self.seed)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SceneSpec":
        if not isinstance(doc, Mapping):
            raise ConfigError("scene spec: expected a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown scene spec keys: {sorted(unknown)}")
        return cls(**doc)


def planted_grades(spec: SceneSpec) -> GroundTruthGrades:
    """Grades implied by the planted counts alone (no geometry involved)."""
    g = ptc = v = None
    if spec.glomerulus_cells:
        inflamed = sum(1 for c in spec.glomerulus_cells if c > GLOMERULUS_CELL_THRESHOLD)
        g = grade_from_inflamed_fraction(Fraction(inflamed, len(spec.glomerulus_cells)))
    if spec.ptc_cells:
        ptc = grade_from_max_count(max(spec.ptc_cells))
    if spec.artery_cells:
        v = grade_from_max_count(max(spec.artery_cells))
    return GroundTruthGrades(section_id=spec.section_id, g=g, ptc=ptc, v=v)


def _ellipse_polygon(rng: np.random.Generator, cx: float, cy: float, a: float, b: float) -> Polygon:
    n = int(rng.integers(12, 25))
    theta = rng.uniform(0.0, math.pi)
    phase = rng.uniform(0.0, 2.0 * math.pi / n)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    verts = []
    for k in range(n):
        alpha = 2.0 * math.pi * k / n + phase
        ex = a * math.cos(alpha)
        ey = b * math.sin(alpha)
        verts.append((cx + ex * cos_t - ey * sin_t, cy + ex * sin_t + ey * cos_t))
    return Polygon(exterior=tuple(verts))


def _place_polygon(
    rng: np.random.Generator,
    canvas: Tuple[float, float, float, float],
    radius_range: Tuple[float, float],
    occupied: List[Tuple[float, float, float]],
    what: str,
) -> Tuple[Polygon, Tuple[float, float, float]]:
    """Place one convex polygon whose bounding circle avoids all occupied
    circles; raises PlacementFailure after the attempt cap."""
    x0, y0, x1, y1 = canvas
    r_lo, r_hi = radius_range
    for _ in range(_PLACEMENT_ATTEMPTS):
        a = rng.uniform(r_lo, r_hi)
        b = rng.uniform(r_lo, r_hi)
        radius = max(a, b)
        margin = radius + _PLACEMENT_MARGIN
        if x1 - x0 <= 2 * margin or y1 - y0 <= 2 * margin:
            raise PlacementFailure(f"{what}: canvas too small for radius {radius:.1f}")
        cx = rng.uniform(x0 + margin, x1 - margin)
        cy = rng.uniform(y0 + margin, y1 - margin)
        if all(
            math.hypot(cx - ox, cy - oy) > radius + orad + _PLACEMENT_MARGIN
            for ox, oy, orad in occupied
        ):
            return _ellipse_polygon(rng, cx, cy, a, b), (cx, cy, radius)
    raise PlacementFailure(f"{what}: no non-overlapping placement in {_PLACEMENT_ATTEMPTS} attempts")


_Fan = Tuple[List[Tuple[Point, Point, Point]], np.ndarray]


def _fan(poly: Polygon) -> _Fan:
    """Fan triangulation of a convex polygon and each triangle's area share."""
    verts = poly.exterior
    tris = [(verts[0], verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
    areas = np.array(
        [
            abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / 2.0
            for a, b, c in tris
        ]
    )
    return tris, areas / areas.sum()


def _point_inside(rng: np.random.Generator, poly: Polygon, fan: _Fan) -> Point:
    """Uniform point inside a convex polygon, given its :func:`_fan`."""
    tris, weights = fan
    for _ in range(100):
        a, b, c = tris[int(rng.choice(len(tris), p=weights))]
        u = math.sqrt(rng.random())
        w = rng.random()
        x = (1 - u) * a[0] + u * (1 - w) * b[0] + u * w * c[0]
        y = (1 - u) * a[1] + u * (1 - w) * b[1] + u * w * c[1]
        if point_in_polygon((x, y), poly):
            return (x, y)
    raise PlacementFailure("interior sampling failed")  # pragma: no cover


def _cell_class(rng: np.random.Generator) -> CellClass:
    return CellClass(LYMPHOCYTE if rng.random() < 0.5 else MONOCYTE)


def _cell(rng: np.random.Generator, cell_id: str, point: Point) -> Detection:
    """A synthetic cell at ``point``; its class is drawn first, then its confidence."""
    return Detection(cell_id, point, _cell_class(rng), round(rng.uniform(0.6, 1.0), 4))


def _plant(rng: np.random.Generator, poly: Polygon, cell_ids: List[str]) -> List[Detection]:
    """One cell per id at a uniform point inside the convex ``poly``, each
    point drawn before the cell's class and confidence."""
    fan = _fan(poly)
    return [_cell(rng, cell_id, _point_inside(rng, poly, fan)) for cell_id in cell_ids]


def _bounding_circle(poly: Polygon) -> Tuple[float, float, float]:
    b = poly.bounds
    cx = (b.min_x + b.max_x) / 2.0
    cy = (b.min_y + b.max_y) / 2.0
    radius = max(math.hypot(x - cx, y - cy) for x, y in poly.exterior)
    return (cx, cy, radius)


def generate_scene(spec: SceneSpec) -> Tuple[SectionScene, GroundTruthGrades]:
    """Build a scene per spec; deterministic for a fixed seed.

    Returns the scene together with the grades implied by the planted
    counts (computed without touching the geometry pipeline).
    """
    rng = np.random.default_rng(derive_seed(spec.seed, "scene"))
    x0, y0, x1, y1 = spec.canvas
    occupied: List[Tuple[float, float, float]] = []
    instances: List[Instance] = []
    plan = (
        (GLOMERULUS, "glom", spec.glomerulus_cells, spec.glomerulus_radius),
        (PERITUBULAR_CAPILLARY, "ptc", spec.ptc_cells, spec.ptc_radius),
        (ARTERY, "art", spec.artery_cells, spec.artery_radius),
    )
    for kind, prefix, cell_counts, radius_range in plan:
        for j in range(len(cell_counts)):
            poly, circle = _place_polygon(
                rng, spec.canvas, radius_range, occupied, f"{prefix}-{j + 1}"
            )
            occupied.append(circle)
            instances.append(
                Instance(id=f"{prefix}-{j + 1}", cls=StructureClass(kind), polygon=poly)
            )
    detections: List[Detection] = []
    for inst, want in zip(instances, [c for _, _, counts, _ in plan for c in counts]):
        n = len(detections)
        detections += _plant(rng, inst.polygon, [f"cell-{n + k}" for k in range(1, want + 1)])
    index = build_index(instances)
    for j in range(spec.background_cells):
        for _ in range(_PLACEMENT_ATTEMPTS):
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
            if not any(
                instances[k].polygon.bounds.contains(x, y)
                and point_in_polygon((x, y), instances[k].polygon)
                for k in index.instances_at(x, y)
            ):
                break
        else:
            raise PlacementFailure(f"background cell {j + 1}: no free canvas space")
        detections.append(_cell(rng, f"bg-{j + 1}", (x, y)))
    scene = SectionScene(
        section_id=spec.section_id,
        instances=instances,
        detections=detections,
        metadata={"canvas": list(spec.canvas), "seed": spec.seed, "generator": "banffscore.synth"},
    )
    return scene, planted_grades(spec)


# ---------------------------------------------------------------------------
# perturbation

@dataclass(frozen=True)
class HallucinationSpec:
    """How many fake instances of one class to insert and how many cells to
    plant in each; ``radius`` falls back to the class default range."""

    count: int = 0
    cells_per_instance: int = 0
    radius: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "count", _count("count", self.count))
        object.__setattr__(
            self, "cells_per_instance", _count("cells_per_instance", self.cells_per_instance)
        )
        if self.radius is not None:
            object.__setattr__(self, "radius", _radius_range("radius", self.radius))

    def to_dict(self) -> dict:
        out: dict = {"count": self.count, "cells_per_instance": self.cells_per_instance}
        if self.radius is not None:
            out["radius"] = list(self.radius)
        return out


_FP_CELL_CLASSES = KNOWN_CELL_KINDS + (OTHER,)


def _check_probability(name: str, value) -> None:
    if not (is_finite(value) and 0 <= value <= 1):
        raise ConfigError(f"{name}: expected a number in [0, 1], got {value!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Error-injection recipe applied by :func:`perturb_scene`."""

    omit_instance_prob: Mapping[str, float] = field(default_factory=dict)
    hallucinate_instances: Mapping[str, HallucinationSpec] = field(default_factory=dict)
    detection_fn_prob: float = 0.0
    detection_fp_count: int = 0
    fp_cell_class: str = LYMPHOCYTE
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("omit_instance_prob", "hallucinate_instances"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name}: expected an object keyed by structure kind")
            object.__setattr__(self, name, dict(getattr(self, name)))
        for kind, p in self.omit_instance_prob.items():
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"omit_instance_prob: unknown structure kind {kind!r}")
            _check_probability(f"omit_instance_prob[{kind!r}]", p)
        for kind, h in self.hallucinate_instances.items():
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"hallucinate_instances: unknown structure kind {kind!r}")
            if not isinstance(h, HallucinationSpec):
                raise ConfigError(f"hallucinate_instances[{kind!r}]: expected a HallucinationSpec")
        _check_probability("detection_fn_prob", self.detection_fn_prob)
        _count("detection_fp_count", self.detection_fp_count)
        if self.fp_cell_class not in _FP_CELL_CLASSES:
            expected = ", ".join(_FP_CELL_CLASSES)
            raise ConfigError(f"fp_cell_class: expected one of {expected}, got {self.fp_cell_class!r}")
        if not (is_finite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ConfigError(
                f"jitter_sigma: expected a finite number >= 0, got {self.jitter_sigma!r}"
            )
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return {
            "omit_instance_prob": dict(self.omit_instance_prob),
            "hallucinate_instances": {
                kind: h.to_dict() for kind, h in self.hallucinate_instances.items()
            },
            "detection_fn_prob": self.detection_fn_prob,
            "detection_fp_count": self.detection_fp_count,
            "fp_cell_class": self.fp_cell_class,
            "jitter_sigma": self.jitter_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PerturbationSpec":
        if not isinstance(doc, Mapping):
            raise ConfigError("perturbation spec: expected a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown perturbation spec keys: {sorted(unknown)}")
        kwargs = dict(doc)
        entries = kwargs.pop("hallucinate_instances", {})
        if not isinstance(entries, Mapping):
            raise ConfigError("hallucinate_instances: expected an object keyed by structure kind")
        halluc = {}
        for kind, entry in entries.items():
            if isinstance(entry, HallucinationSpec):
                halluc[kind] = entry
                continue
            where = f"hallucinate_instances[{kind!r}]"
            if not isinstance(entry, Mapping):
                raise ConfigError(f"{where} must be an object")
            unknown = set(entry) - set(HallucinationSpec.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
            try:
                halluc[kind] = HallucinationSpec(**entry)
            except ConfigError as exc:
                raise ConfigError(f"{where}.{exc}") from None
        return cls(hallucinate_instances=halluc, **kwargs)


def perturb_scene(scene: SectionScene, pspec: PerturbationSpec) -> SectionScene:
    """Apply omission, hallucination, FN dropout, FP insertion, and jitter,
    in that fixed order; an all-zero spec returns a scene equal to the input.
    Only hallucination and FP insertion read the scene's canvas."""
    instances = list(scene.instances)
    detections = scene.detections

    omit = {k: p for k, p in pspec.omit_instance_prob.items() if p > 0}
    if omit:
        rng = np.random.default_rng(derive_seed(pspec.seed, "omit"))
        kept = []
        for inst in instances:
            p = omit.get(inst.cls.kind, 0.0)
            if p > 0 and rng.random() < p:
                continue
            kept.append(inst)
        instances = kept

    for kind in SCORABLE_STRUCTURE_KINDS:  # fixed class order
        hspec = pspec.hallucinate_instances.get(kind)
        if hspec is None or hspec.count == 0:
            continue
        rng = np.random.default_rng(derive_seed(pspec.seed, f"hallucinate:{kind}"))
        canvas = scene_canvas(scene)
        occupied = [_bounding_circle(inst.polygon) for inst in instances]
        radius_range = hspec.radius if hspec.radius is not None else DEFAULT_RADIUS_RANGES[kind]
        for j in range(hspec.count):
            iid = f"hall-{kind}-{j + 1}"
            poly, circle = _place_polygon(rng, canvas, radius_range, occupied, iid)
            occupied.append(circle)
            instances.append(Instance(id=iid, cls=StructureClass(kind), polygon=poly))
            cell_ids = [f"{iid}-cell-{c}" for c in range(1, hspec.cells_per_instance + 1)]
            detections = detections + _plant(rng, poly, cell_ids)

    if pspec.detection_fn_prob > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fn"))
        detections = detections.take(~(rng.random(len(detections)) < pspec.detection_fn_prob))

    n = pspec.detection_fp_count
    if n > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fp"))
        x0, y0, x1, y1 = scene_canvas(scene)
        # row j holds FP j's x, then its y: the order of one draw per coordinate
        xy = rng.uniform((x0, y0), (x1, y1), size=(n, 2))
        ids, labels = [f"fp-{j + 1}" for j in range(n)], [pspec.fp_cell_class] * n
        detections = detections + DetectionTable.from_labels(ids, *xy.T, np.ones(n), labels, CellClass)

    if pspec.jitter_sigma > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "jitter"))
        dx, dy = rng.normal(0.0, pspec.jitter_sigma, size=(len(detections), 2)).T
        detections = DetectionTable(detections.ids, detections.xs + dx, detections.ys + dy,
                                    detections.confidences, detections.codes, detections.classes)

    return SectionScene(
        section_id=scene.section_id,
        instances=instances,
        detections=detections,
        metadata=dict(scene.metadata),
    )


# ---------------------------------------------------------------------------
# sensitivity analysis

GRADE_BINS = ("0", "1", "2", "3", "unscorable")


def _grade_key(value: Union[int, Unscorable]) -> str:
    return "unscorable" if isinstance(value, Unscorable) else str(value)


@dataclass(frozen=True)
class IndicatorSensitivity:
    baseline: str
    histogram: Dict[str, int]
    flip_rate: float
    mean_abs_shift: Optional[float]


@dataclass(frozen=True)
class SensitivityReport:
    """Grade-stability statistics over perturbation trials.

    Flip rate counts any change from the unperturbed grade, including a
    change to unscorable; the mean absolute shift averages |grade - base|
    over the trials where both values are numeric.
    """

    trials: int
    per_indicator: Dict[str, IndicatorSensitivity]
    rows: Tuple[Tuple[str, str, str], ...]  # per-trial (g, ptc, v) grade keys

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "per_indicator": {
                name: {
                    "baseline": s.baseline,
                    "histogram": dict(s.histogram),
                    "flip_rate": s.flip_rate,
                    "mean_abs_shift": s.mean_abs_shift,
                }
                for name, s in self.per_indicator.items()
            },
        }

    def to_csv(self, comment: Optional[str] = None) -> bytes:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append("trial,g,ptc,v")
        for i, row in enumerate(self.rows):
            lines.append(f"{i},{row[0]},{row[1]},{row[2]}")
        return ("\n".join(lines) + "\n").encode("utf-8")


def _trial_grades(report: ScoreReport) -> Tuple[str, str, str]:
    return (
        _grade_key(report.grade("g")),
        _grade_key(report.grade("ptc")),
        _grade_key(report.grade("v")),
    )


def sensitivity_run(
    scene: SectionScene,
    pspec: PerturbationSpec,
    trials: int,
    config: RunConfig = RunConfig(),
) -> SensitivityReport:
    """Perturb + rescore ``trials`` times; trial i uses the child seed
    ``derive_seed(pspec.seed, f"trial:{i}")``.  Every trial owns an
    independent stream, so row i does not depend on the other trials."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    baseline = _trial_grades(score_section(scene, config))

    def run_trial(i: int) -> Tuple[str, str, str]:
        tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
        return _trial_grades(score_section(perturb_scene(scene, tspec), config))

    rows = tuple(run_trial(i) for i in range(trials))

    per_indicator: Dict[str, IndicatorSensitivity] = {}
    for pos, name in enumerate(("g", "ptc", "v")):
        values = [row[pos] for row in rows]
        histogram = {b: 0 for b in GRADE_BINS}
        for v in values:
            histogram[v] += 1
        base = baseline[pos]
        flips = sum(1 for v in values if v != base)
        shifts = [abs(int(v) - int(base)) for v in values if v != "unscorable" and base != "unscorable"]
        per_indicator[name] = IndicatorSensitivity(
            baseline=base,
            histogram=histogram,
            flip_rate=flips / trials,
            mean_abs_shift=(sum(shifts) / len(shifts)) if shifts else None,
        )
    return SensitivityReport(trials=trials, per_indicator=per_indicator, rows=rows)
