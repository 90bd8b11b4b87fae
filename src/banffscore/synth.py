"""Seeded synthetic scenes with grades known by construction, plus error injection.

Scenes are built from explicit per-instance planted cell counts, so the
ground-truth grades come straight from the grading rules applied to those
counts -- :func:`~banffscore.scoring.score_indicator` without the geometry
pipeline, which the test suite cross-checks against it.  Instances are
convex polygons (randomized 12-24-gon approximations of ellipses) placed
without overlap via bounding-circle rejection sampling; convexity keeps
uniform interior sampling cheap and grades depend only on containment
counts, not boundary realism.

The scene stream is read in a fixed order: every placement, then every
planted cell (read in blocks as :func:`_plant` describes), then the
background.

Perturbations run in a fixed order -- instance omission, instance
hallucination, detection false-negative dropout, false-positive insertion,
coordinate jitter -- because the operations do not commute; the order
mirrors pipeline causality (segmentation errors precede detection errors).
Each stage and each sensitivity trial draws from its own stream derived via
:func:`banffscore.seeds.derive_seed`.  Jittered detections may leave their
instance; there is deliberately no clamping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .config import RunConfig
from .errors import ConfigError, DegenerateGeometry, PlacementFailure, echo
from .geometry import (
    _BLOCK_PAIRS,
    Polygon,
    _contains,
    _EdgeTable,
    build_index,
    contained_pairs,
)
from .ingest import (
    _clean_ring,
    _polygons,
    _self_intersection_sweep,
    as_number,
    checked_canvas,
    checked_integer,
    is_finite,
    is_int,
    scene_canvas,
)
from .model import (
    ARTERY,
    GLOMERULUS,
    INDICATORS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    SCORABLE_STRUCTURE_KINDS,
    CellClass,
    DetectionTable,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)
from .scoring import ScoreReport, Unscorable, score_indicator, score_section
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


class _Spec:
    """One reader and one writer for the spec documents: scene and
    perturbation specs and their nested hallucination entries."""

    _document = "spec"

    @classmethod
    def from_dict(cls, doc, where: str = ""):
        """The spec the JSON object ``doc`` holds.  A non-object or an unknown
        key is an error naming ``where``, or else the document; when ``where``
        names a nested entry, a field's own error gets ``where.`` before it."""
        name = where or cls._document
        if not isinstance(doc, Mapping):
            raise ConfigError(f"{name}: expected a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {echo(sorted(unknown))}")
        try:
            return cls(**doc)
        except ConfigError as exc:
            if not where:
                raise
            raise ConfigError(f"{where}.{exc}") from None

    def to_dict(self) -> dict:
        """The spec as a JSON object that :meth:`from_dict` reads back as
        it: tuples as lists, nested specs as objects, a None field left out."""
        return {f.name: _json_value(v) for f in fields(self) if (v := getattr(self, f.name)) is not None}


def _json_value(value):
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {k: _json_value(v) for k, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


def _count(name: str, value) -> int:
    if not (is_int(value) and value >= 0):
        raise ConfigError(f"{name}: expected an integer >= 0, got {echo(value)}")
    return checked_integer(value, name, ConfigError)


def _check_seed(value) -> None:
    if not is_int(value):
        raise ConfigError(f"seed: expected an integer, got {echo(value)}")


def _radius_range(name: str, value) -> Tuple[float, float]:
    is_pair = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_finite, value))
    if not (is_pair and 0 < value[0] <= value[1]):
        raise ConfigError(f"{name}: expected [min, max] with 0 < min <= max, got {echo(value)}")
    return (as_number(value[0]), as_number(value[1]))


@dataclass(frozen=True)
class SceneSpec(_Spec):
    """Recipe for one synthetic section.  The cell-count lists fix the number
    of instances per class and the number of cells planted in each."""

    _document = "scene spec"

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
            raise ConfigError(f"section_id: expected a string, got {echo(self.section_id)}")
        object.__setattr__(self, "canvas", checked_canvas(self.canvas, "canvas", ConfigError))
        for name in ("glomerulus_cells", "ptc_cells", "artery_cells"):
            counts = getattr(self, name)
            if not isinstance(counts, (list, tuple)):
                raise ConfigError(f"{name}: expected a list of integers >= 0, got {echo(counts)}")
            object.__setattr__(
                self, name, tuple(_count(f"{name}[{i}]", c) for i, c in enumerate(counts))
            )
        for name in ("glomerulus_radius", "ptc_radius", "artery_radius"):
            object.__setattr__(self, name, _radius_range(name, getattr(self, name)))
        object.__setattr__(self, "background_cells", _count("background_cells", self.background_cells))
        _check_seed(self.seed)

    def plan(self) -> Tuple[Tuple[str, str, Tuple[int, ...], Tuple[float, float]], ...]:
        """Per structure kind, in scene order: the kind, its instance id
        prefix, its planted cell counts and its radius range."""
        return (
            (GLOMERULUS, "glom", self.glomerulus_cells, self.glomerulus_radius),
            (PERITUBULAR_CAPILLARY, "ptc", self.ptc_cells, self.ptc_radius),
            (ARTERY, "art", self.artery_cells, self.artery_radius),
        )


def planted_grades(spec: SceneSpec) -> GroundTruthGrades:
    """Grades implied by the planted counts alone (no geometry involved),
    graded by the scorer; an unscorable indicator is None."""
    cells = {kind: counts for kind, _, counts, _ in spec.plan()}
    grades = {}
    for name, kind in INDICATORS.items():
        detail = score_indicator(name, dict(enumerate(cells[kind])))
        grades[name] = None if isinstance(detail, Unscorable) else detail.grade
    return GroundTruthGrades(section_id=spec.section_id, **grades)


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


def _cells(ids: List[str], xs: np.ndarray, ys: np.ndarray, u_class: np.ndarray,
           u_confidence: np.ndarray) -> DetectionTable:
    """Synthetic cells at ``(xs, ys)``, each from two uniform doubles in [0,
    1): ``u_class`` picks its class, ``u_confidence`` its confidence, mapped
    as ``rng.uniform(0.6, 1.0)`` maps a double and rounded to 4 decimals by
    Python's ``round`` (``np.round`` scales by 10**4 first, which rounds some
    values near a half the other way)."""
    labels = np.where(u_class < 0.5, LYMPHOCYTE, MONOCYTE).tolist()
    confidences = np.array([round(0.6 + (1.0 - 0.6) * u, 4) for u in u_confidence.tolist()], dtype=np.float64)
    return DetectionTable.from_labels(ids, xs, ys, confidences, labels, CellClass)


def _plant(rng: np.random.Generator, polygons: Sequence[Polygon], counts: Sequence[int],
           ids: List[str]) -> DetectionTable:
    """One cell per id at a uniform point inside a convex polygon: the first
    ``counts[0]`` ids in ``polygons[0]``, the next ``counts[1]`` in
    ``polygons[1]``, and so on.

    Each cell reads five doubles: its fan triangle ``(a, b, c)``
    (``rng.choice`` with the triangles' area weights), ``u`` and ``w`` of its
    point ``(1 - sqrt(u)) * a + sqrt(u) * (1 - w) * b + sqrt(u) * w * c``,
    its class and its confidence.  The cells are drawn as ``(k, 5)``
    blocks: the triangle pick is ``rng.choice``'s own ``searchsorted`` over
    the normalized cumulative weights (a count of the entries ``<=`` the
    double), and one kernel call tests all the points.  At a block's first
    rejected point, the generator goes back to its state before the block
    and reads the accepted cells' doubles and the rejected point's three
    again, and the next block starts at the rejected cell.  The state is
    restored rather than rewound with ``advance()``, which would drop the
    buffered 32-bit half that ``rng.integers`` leaves behind.  A cell whose
    point is rejected 100 times in a row is a PlacementFailure.
    """
    owner = np.repeat(np.arange(len(polygons)), counts)
    edges = _EdgeTable.of(polygons)
    apex = edges.ring_start[edges.first_ring]  # vertex 0 of each exterior, every fan triangle's first corner
    sizes = edges.ring_size[edges.first_ring]
    cdf = np.full((len(polygons), int((sizes - 2).max(initial=0))), np.inf)
    for k, (start, n) in enumerate(zip(apex.tolist(), sizes.tolist())):
        x, y = edges.x1[start:start + n], edges.y1[start:start + n]
        areas = np.abs((x[1:-1] - x[0]) * (y[2:] - y[0]) - (x[2:] - x[0]) * (y[1:-1] - y[0])) / 2.0
        cumulative = (areas / areas.sum()).cumsum()
        cumulative /= cumulative[-1]  # as rng.choice normalizes its p
        cdf[k, :n - 2] = cumulative
    columns = np.empty((4, owner.size))  # x, y, class double, confidence double
    i = misses = 0
    while i < owner.size:
        state = rng.bit_generator.state
        block = rng.random((min(_BLOCK_PAIRS, owner.size - i), 5))
        own = owner[i:i + len(block)]
        b = apex[own] + 1 + np.count_nonzero(cdf[own] <= block[:, :1], axis=1)
        u, w = np.sqrt(block[:, 1]), block[:, 2]
        a, c = apex[own], b + 1
        xs = (1 - u) * edges.x1[a] + u * (1 - w) * edges.x1[b] + u * w * edges.x1[c]
        ys = (1 - u) * edges.y1[a] + u * (1 - w) * edges.y1[b] + u * w * edges.y1[c]
        inside = _contains(edges, xs, ys, own)
        good = int(np.argmin(inside)) if not inside.all() else len(block)
        columns[:, i:i + good] = (xs[:good], ys[:good], block[:good, 3], block[:good, 4])
        if good:
            misses = 0
        if good < len(block):
            misses += 1
            if misses == 100:
                raise PlacementFailure("interior sampling failed")
            rng.bit_generator.state = state
            rng.random(5 * good + 3)
        i += good
    return _cells(ids, *columns)


def _check_rings(instances: List[Instance]) -> None:
    """Raise PlacementFailure naming the first instance whose ring
    :func:`~banffscore.ingest.read_scene` would reject or change, as a tiny
    radius can make it: the document check that ``read_scene`` runs
    (:func:`~banffscore.ingest._polygons`), whose polygons must equal the
    generated ones, then, only if it rejects or changes one, one ring at a
    time to name the first."""
    entries = [(inst.id, inst.cls, [inst.polygon.exterior], inst.properties) for inst in instances]
    if _polygons(entries) == [inst.polygon for inst in instances]:
        return
    try:
        with _self_intersection_sweep() as cleaned:
            for inst in instances:
                ring = inst.polygon.exterior
                if _clean_ring(ring, inst.id) != ring:
                    raise DegenerateGeometry(f"{inst.id}: ring repeats a vertex")
                cleaned.append((ring, inst.id))
    except DegenerateGeometry as exc:
        raise PlacementFailure(str(exc)) from None
    raise AssertionError("a generated ring failed a column check but no per-ring check")


def generate_scene(spec: SceneSpec) -> Tuple[SectionScene, GroundTruthGrades]:
    """Build a scene per spec; deterministic for a fixed seed.

    Returns the scene together with the grades implied by the planted
    counts (computed without touching the geometry pipeline).
    """
    rng = np.random.default_rng(derive_seed(spec.seed, "scene"))
    x0, y0, x1, y1 = spec.canvas
    occupied: List[Tuple[float, float, float]] = []
    instances: List[Instance] = []
    for kind, prefix, cell_counts, radius_range in spec.plan():
        for j in range(len(cell_counts)):
            poly, circle = _place_polygon(
                rng, spec.canvas, radius_range, occupied, f"{prefix}-{j + 1}"
            )
            occupied.append(circle)
            instances.append(
                Instance(id=f"{prefix}-{j + 1}", cls=StructureClass(kind), polygon=poly)
            )
    _check_rings(instances)
    polygons = [inst.polygon for inst in instances]
    counts = [c for _, _, cell_counts, _ in spec.plan() for c in cell_counts]
    planted = _plant(rng, polygons, counts, [f"cell-{k}" for k in range(1, sum(counts) + 1)])
    # The background stream is a sequence of pairs of doubles: an attempt's
    # x and y, mapped as rng.uniform maps a double, and after a free attempt
    # that cell's class and confidence.  It is read and tested a block at a
    # time.  The background is the scene stream's last stage, so the pairs
    # the walk leaves unread in the last block need no rewind.
    index = build_index(instances)
    background: List[Tuple[float, float, float, float]] = []
    point, misses = None, 0
    while len(background) < spec.background_cells:
        u = rng.random((min(_BLOCK_PAIRS, 2 * (spec.background_cells - len(background))), 2))
        xs, ys = x0 + (x1 - x0) * u[:, 0], y0 + (y1 - y0) * u[:, 1]
        busy = np.zeros(len(u), dtype=bool)
        busy[contained_pairs(index, xs, ys)[0]] = True
        walk = zip(u.tolist(), xs.tolist(), ys.tolist(), busy.tolist())
        for (u_class, u_confidence), x, y, hit in walk:
            if point is not None:
                background.append((*point, u_class, u_confidence))
                point = None
                if len(background) == spec.background_cells:
                    break
            elif not hit:
                point, misses = (x, y), 0
            elif (misses := misses + 1) == _PLACEMENT_ATTEMPTS:
                raise PlacementFailure(f"background cell {len(background) + 1}: no free canvas space")
    bg_ids = [f"bg-{j}" for j in range(1, len(background) + 1)]
    detections = planted + _cells(bg_ids, *np.array(background, dtype=np.float64).reshape(-1, 4).T)
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
class HallucinationSpec(_Spec):
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


_FP_CELL_CLASSES = KNOWN_CELL_KINDS + (OTHER,)


def _check_probability(name: str, value) -> None:
    if not (is_finite(value) and 0 <= value <= 1):
        raise ConfigError(f"{name}: expected a number in [0, 1], got {echo(value)}")


@dataclass(frozen=True)
class PerturbationSpec(_Spec):
    """Error-injection recipe applied by :func:`perturb_scene`.  A
    hallucination entry given as an object is read as a
    :class:`HallucinationSpec`."""

    _document = "perturbation spec"

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
                raise ConfigError(f"omit_instance_prob: unknown structure kind {echo(kind)}")
            _check_probability(f"omit_instance_prob[{kind!r}]", p)
        for kind, h in self.hallucinate_instances.items():
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"hallucinate_instances: unknown structure kind {echo(kind)}")
            if not isinstance(h, HallucinationSpec):
                self.hallucinate_instances[kind] = HallucinationSpec.from_dict(
                    h, f"hallucinate_instances[{kind!r}]"
                )
        _check_probability("detection_fn_prob", self.detection_fn_prob)
        _count("detection_fp_count", self.detection_fp_count)
        if self.fp_cell_class not in _FP_CELL_CLASSES:
            expected = ", ".join(_FP_CELL_CLASSES)
            raise ConfigError(
                f"fp_cell_class: expected one of {expected}, got {echo(self.fp_cell_class)}"
            )
        if not (is_finite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ConfigError(
                f"jitter_sigma: expected a finite number >= 0, got {echo(self.jitter_sigma)}"
            )
        _check_seed(self.seed)


def perturb_scene(scene: SectionScene, pspec: PerturbationSpec) -> SectionScene:
    """Apply omission, hallucination, FN dropout, FP insertion, and jitter,
    in that fixed order; an all-zero spec returns a scene equal to the input.
    Only hallucination and FP insertion read the scene's canvas.  The
    hallucinated instances of a kind take the ids ``hall-<kind>-<n>`` for
    n = 1, 2, ... that no instance of the input scene has."""
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
        occupied = [inst.polygon.bounding_circle for inst in instances]
        radius_range = hspec.radius if hspec.radius is not None else DEFAULT_RADIUS_RANGES[kind]
        taken = {inst.id for inst in scene.instances}
        names = (f"hall-{kind}-{n}" for n in itertools.count(1))
        for iid in itertools.islice((name for name in names if name not in taken), hspec.count):
            poly, circle = _place_polygon(rng, canvas, radius_range, occupied, iid)
            occupied.append(circle)
            instances.append(Instance(id=iid, cls=StructureClass(kind), polygon=poly))
            # planting draws before the next placement, so each ring is checked alone
            _check_rings(instances[-1:])
            cell_ids = [f"{iid}-cell-{c}" for c in range(1, hspec.cells_per_instance + 1)]
            detections = detections + _plant(rng, [poly], [hspec.cells_per_instance], cell_ids)

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
    rows: Tuple[Tuple[str, ...], ...]  # per-trial grade keys, one per indicator

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
        lines.append(",".join(("trial", *INDICATORS)))
        for i, row in enumerate(self.rows):
            lines.append(",".join((str(i), *row)))
        return ("\n".join(lines) + "\n").encode("utf-8")


def _trial_grades(report: ScoreReport) -> Tuple[str, ...]:
    return tuple(_grade_key(report.grade(name)) for name in INDICATORS)


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

    def run_trial(i: int) -> Tuple[str, ...]:
        tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
        return _trial_grades(score_section(perturb_scene(scene, tspec), config))

    rows = tuple(run_trial(i) for i in range(trials))

    per_indicator: Dict[str, IndicatorSensitivity] = {}
    for pos, name in enumerate(INDICATORS):
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
