"""Shared builders for the test suite."""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import pytest

from banffscore.geometry import Polygon
from banffscore.model import (
    GLOMERULUS,
    LYMPHOCYTE,
    MONOCYTE,
    CellClass,
    Detection,
    DetectionTable,
    Instance,
    StructureClass,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def square(cx: float, cy: float, half: float) -> Tuple[Tuple[float, float], ...]:
    return (
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
    )


def mk_instance(iid: str, kind: str, exterior, holes=()) -> Instance:
    return Instance(id=iid, cls=StructureClass(kind), polygon=Polygon(exterior=exterior, holes=holes))


def mk_detection(iid: str, x: float, y: float, kind: str = LYMPHOCYTE, confidence: float = 1.0) -> Detection:
    return Detection(id=iid, point=(x, y), cls=CellClass(kind), confidence=confidence)


def star_ring(
    rng: np.random.Generator,
    cx: float,
    cy: float,
    r_min: float,
    r_max: float,
    n_vertices: int,
) -> Tuple[Tuple[float, float], ...]:
    """Simple (star-shaped) ring: evenly spaced base angles with bounded jitter
    keep consecutive gaps under ~86 degrees, so any concentric ring with radius
    below ~0.7 * r_min stays strictly inside."""
    step = 2.0 * math.pi / n_vertices
    angles = np.array([k * step + rng.uniform(0.0, 0.9 * step) for k in range(n_vertices)])
    radii = rng.uniform(r_min, r_max, n_vertices)
    return tuple(
        (cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)
    )


def random_polygon(
    rng: np.random.Generator,
    cx: float,
    cy: float,
    r_min: float,
    r_max: float,
    max_holes: int = 2,
) -> Polygon:
    """Random star polygon, possibly with small disjoint interior holes."""
    n = int(rng.integers(8, 25))
    exterior = star_ring(rng, cx, cy, r_min, r_max, n)
    holes = []
    n_holes = int(rng.integers(0, max_holes + 1))
    if n_holes == 1:
        holes.append(star_ring(rng, cx, cy, 0.15 * r_min, 0.45 * r_min, int(rng.integers(6, 12))))
    elif n_holes == 2:
        offset = 0.35 * r_min
        for sign in (-1.0, 1.0):
            holes.append(
                star_ring(
                    rng, cx + sign * offset, cy, 0.05 * r_min, 0.14 * r_min, int(rng.integers(6, 10))
                )
            )
    return Polygon(exterior=exterior, holes=tuple(holes))


def random_assignment_scene(
    seed: int,
    n_instances: int,
    n_detections: int,
    canvas: float = 4096.0,
    kind: str = GLOMERULUS,
) -> Tuple[List[Instance], DetectionTable]:
    """Random overlapping instances with holes plus uniform detections, for
    oracle-equivalence checks on the assignment path."""
    rng = np.random.default_rng(seed)
    instances = []
    for k in range(n_instances):
        r_max = rng.uniform(60.0, 220.0)
        r_min = 0.45 * r_max
        cx = rng.uniform(r_max, canvas - r_max)
        cy = rng.uniform(r_max, canvas - r_max)
        instances.append(
            Instance(
                id=f"i{k}",
                cls=StructureClass(kind),
                polygon=random_polygon(rng, cx, cy, r_min, r_max),
            )
        )
    # one block of draws, x then y per detection, as scalar draws would give them
    xs, ys = rng.uniform(0.0, canvas, size=(n_detections, 2)).T.copy()
    ids = np.array([f"d{j}" for j in range(n_detections)], dtype=object)
    # lymphocytes and monocytes in turn
    codes = np.arange(n_detections, dtype=np.intp) % 2
    classes = (CellClass(LYMPHOCYTE), CellClass(MONOCYTE))
    return instances, DetectionTable(ids, xs, ys, np.ones(n_detections), codes, classes)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
