"""In-memory spans around the benchmark's calls into each layer, and the
per-layer metrics derived from them.

A span is named ``<layer>.<call>``.  Spans in the ``bench`` layer cover the
benchmark's own counting; they belong to no program layer, and they are
taken out of the traced end-to-end time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List

LAYERS = ("ingest", "geometry", "scoring", "synth", "evaluation", "cli")
BENCH = "bench"


class Tracer:
    """Records spans (name, start, end, parent, op) and count samples."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1, op]
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op: object = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(tracer: Tracer, num: str, den: str) -> float:
    total = sum(tracer.samples[den])
    return sum(tracer.samples[num]) / total if total else 0.0


def layer_metrics(tracer: Tracer, untraced_op_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are medians over the spans of one call; counts are medians over
    their samples; ratios are totals over the run.  A layer call the workload
    never makes reads 0.  ``<layer>.self_s`` is the median over ops of the
    op's self time in that layer.
    """
    spans = tracer.spans
    own = tracer.self_times()
    durations: Dict[str, List[float]] = defaultdict(list)
    per_op_self: Dict[str, Dict[object, float]] = {layer: defaultdict(float) for layer in LAYERS}
    per_op_traced: Dict[object, float] = defaultdict(float)
    per_op_bench: Dict[object, float] = defaultdict(float)
    rescore: List[float] = []
    for k, (name, start, end, parent, op) in enumerate(spans):
        layer = name.split(".", 1)[0]
        durations[name].append(end - start)
        if layer == BENCH:
            per_op_bench[op] += end - start
        else:
            per_op_self[layer][op] += own[k]
        if parent < 0 and layer == "cli":
            per_op_traced[op] += end - start
        if name == "scoring.score_section" and parent >= 0 and spans[parent][0] == "synth.trial":
            rescore.append(end - start)
    traced = [per_op_traced[op] - per_op_bench[op] for op in per_op_traced]
    s = tracer.samples
    metrics = {
        "ingest.parse_structures_s": _median(durations["ingest.parse_structures"]),
        "ingest.ring_vertices": _median(s["ingest.ring_vertices"]),
        "ingest.parse_detections_s": _median(durations["ingest.parse_detections"]),
        "ingest.detections_read": _median(s["ingest.detections_read"]),
        "ingest.dedup_s": _median(durations["ingest.dedup_detections"]),
        "ingest.dedup_kept_ratio": _ratio(tracer, "ingest.dedup_out", "ingest.dedup_in"),
        "ingest.write_scene_s": _median(durations["ingest.write_scene"]),
        "ingest.scene_bytes": _median(s["ingest.scene_bytes"]),
        "ingest.read_scene_s": _median(durations["ingest.read_scene"]),
        "geometry.build_index_s": _median(durations["geometry.build_index"]),
        "geometry.assign_s": _median(durations["geometry.assign_detections"]),
        "geometry.bbox_candidates": _median(s["geometry.bbox_candidates"]),
        "geometry.edge_tests": _median(s["geometry.edge_tests"]),
        "geometry.hit_ratio": _ratio(tracer, "geometry.contained", "geometry.bbox_candidates"),
        "geometry.assigned": _median(s["geometry.assigned"]),
        "geometry.unassigned": _median(s["geometry.unassigned"]),
        "geometry.multi_assigned": _median(s["geometry.multi_assigned"]),
        "scoring.score_section_s": _median(durations["scoring.score_section"]),
        "scoring.kept_ratio": _ratio(tracer, "scoring.kept", "scoring.read"),
        "scoring.grade_s": _median(durations["scoring.grade"]),
        "scoring.report_to_json_s": _median(durations["scoring.report_to_json"]),
        "scoring.report_bytes": _median(s["scoring.report_bytes"]),
        "synth.generate_scene_s": _median(durations["synth.generate_scene"]),
        "synth.perturb_s": _median(durations["synth.perturb_scene"]),
        "synth.rescore_s": _median(rescore),
        "synth.trial_detections": _median(s["synth.trial_detections"]),
        "evaluation.evaluate_s": _median(durations["evaluation.evaluate"]),
        "cli.bytes_written": _median(s["cli.bytes_written"]),
        "trace.traced_op_s": _median(traced),
        "trace.untraced_op_s": _median(untraced_op_s),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median(per_op_self[layer].values())
    metrics["trace.overhead_s"] = metrics["trace.traced_op_s"] - metrics["trace.untraced_op_s"]
    return metrics

