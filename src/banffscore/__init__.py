"""Banff lesion grading from segmented structures and inflammatory-cell detections.

Deterministic engine: parse structure/detection annotations, assign each
detected cell to the anatomical instances containing it, grade glomerulitis
(g), peritubular capillaritis (ptc) and intimal arteritis (v), compare
predicted grades against expert ground truth, and measure grade robustness
under injected segmentation/detection errors.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .errors import (
    BanffScoreError,
    ConfigError,
    DegenerateGeometry,
    EmptyMatrix,
    GradeOutOfRange,
    IndexMismatch,
    MalformedDocument,
    PlacementFailure,
    SchemaViolation,
)
from .geometry import (
    AssignmentTable,
    BoundingBox,
    Polygon,
    SpatialIndex,
    assign_detections,
    build_index,
)
from .model import (
    ARTERY,
    GLOMERULUS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    CellClass,
    Detection,
    DetectionTable,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)
from .ingest import (
    dedup_detections,
    parse_detections,
    parse_ground_truth,
    parse_structures,
    read_scene,
    write_scene,
)
from .scoring import (
    GScoreDetail,
    MaxCountDetail,
    ScoreReport,
    Unscorable,
    score_g,
    score_ptc,
    score_section,
    score_v,
)
from .evaluation import AgreementSummary, ConfusionMatrix, accumulate, summarize
from .synth import (
    PerturbationSpec,
    SceneSpec,
    SensitivityReport,
    generate_scene,
    perturb_scene,
    sensitivity_run,
)
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
