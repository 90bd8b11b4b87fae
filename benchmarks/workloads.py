"""The three workloads: inputs on disk, one timed CLI op, and the gates every
op must pass.

Each op calls ``banffscore.cli.main`` in-process, exactly as a user's
command line would, and is timed from input files to written outputs.  An
op fails on an exception, a non-zero exit, or a failed check; the caller
counts it.  ``traced_op`` runs the same op untraced, then the decomposed
path from ``decomposed.py``, and checks that both give the same result.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from banffscore.cli import main as cli_main

import decomposed
import inputs
from inputs import INDICATOR_KIND
from tracing import Tracer

BIOPSY_POOL = 4  # sections per biopsy run, so evaluate sees several grades
SENSITIVITY_TRIALS = 10


def warm_up_shape(shape: inputs.SectionShape) -> inputs.SectionShape:
    """The same kind of section at about a fiftieth of the size."""
    kinds = tuple(replace(k, count=max(1, k.count // 50)) for k in shape.kinds)
    return replace(shape, kinds=kinds, true_cells=400)


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv: List[str]) -> float:
    """Run one CLI command in-process; returns its wall seconds."""
    start = perf_counter()
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    elapsed = perf_counter() - start
    check(code == 0, f"banffscore {argv[0]} exited {code}")
    return elapsed


def _grade_key(grade: Optional[int]) -> str:
    return "unscorable" if grade is None else str(grade)


def check_report(doc: dict, section: inputs.Section) -> None:
    """Per-instance counts and grades equal the planted ones."""
    for indicator, kind in INDICATOR_KIND.items():
        planted = section.planted[kind]
        detail = doc[indicator]
        where = f"{section.section_id} {indicator}"
        if not planted:
            check(detail["status"] == "unscorable", f"{where}: expected unscorable")
            continue
        check(detail["status"] == "scored", f"{where}: not scored")
        got = [(e["id"], e["count"]) for e in detail["per_instance"]]
        check(got == sorted(planted.items()), f"{where}: per-instance counts differ from planted")
        check(detail["grade"] == section.grades[indicator], f"{where}: grade {detail['grade']}")
        if indicator == "g":
            flags = [e["inflamed"] for e in detail["per_instance"]]
            check(flags == [c > 3 for _, c in got], f"{where}: inflamed flags differ")


class SectionWorkload:
    """``score`` on generated sections, one section per op (biopsy, slide)."""

    def __init__(self, shape: inputs.SectionShape, pool: int, dedup_radius: Optional[float],
                 seed: int, work: Path):
        self.shape, self.pool, self.dedup_radius, self.seed = shape, pool, dedup_radius, seed
        self.work = work
        self.sections: List[inputs.Section] = []
        self.reports: Dict[int, bytes] = {}

    def _score_argv(self, stem: str, out: Path) -> List[str]:
        argv = ["score", "--structures", str(self.work / f"{stem}.geojson"),
                "--detections", str(self.work / f"{stem}.detections.json"), "--out-dir", str(out)]
        if self.dedup_radius is not None:
            argv += ["--dedup-radius", str(self.dedup_radius)]
        return argv

    def setup(self) -> bytes:
        """Generate and write the inputs; returns their bytes so repeated
        set-ups can be compared."""
        self.sections = [
            inputs.generate_section(self.shape, [self.seed, k], f"s{k}") for k in range(self.pool)
        ]
        self.work.mkdir(parents=True, exist_ok=True)
        for k, sec in enumerate(self.sections):
            (self.work / f"s{k}.geojson").write_bytes(sec.structures)
            (self.work / f"s{k}.detections.json").write_bytes(sec.detections)
            (self.work / f"s{k}.gt.geojson").write_bytes(sec.ground_truth)
        return b"".join(s.structures + s.detections + s.ground_truth for s in self.sections)

    def warm_up(self) -> None:
        """One checked op on a small section of the same kind."""
        warm = inputs.generate_section(warm_up_shape(self.shape), [self.seed, 1000], "warm")
        (self.work / "warm.geojson").write_bytes(warm.structures)
        (self.work / "warm.detections.json").write_bytes(warm.detections)
        run_cli(self._score_argv("warm", self.work / "warm-out"))
        check_report(json.loads((self.work / "warm-out" / "warm.score.json").read_bytes()), warm)

    def op(self, i: int) -> Dict[str, float]:
        k = i % self.pool
        out = self.work / "out"
        elapsed = run_cli(self._score_argv(f"s{k}", out))
        doc = (out / f"s{k}.score.json").read_bytes()
        check_report(json.loads(doc), self.sections[k])
        check(self.reports.setdefault(k, doc) == doc, f"s{k}: report bytes differ between repeats")
        return {"op_s": elapsed}

    def traced_op(self, i: int, tr: Tracer) -> Dict[str, float]:
        timings = self.op(i)
        k = i % self.pool
        out = self.work / "traced"
        out.mkdir(exist_ok=True)
        doc, counts = decomposed.score(
            tr, self.work / f"s{k}.geojson", self.work / f"s{k}.detections.json",
            out / f"s{k}.score.json", f"s{k}", self.dedup_radius,
            json.loads(self.reports[k])["config"],
        )
        check(doc == self.reports[k], f"s{k}: decomposed report differs from the CLI's")
        check(counts == self.sections[k].planted, f"s{k}: decomposed counts differ from planted")
        return timings

    def finish(self, tr: Optional[Tracer]) -> int:
        """``evaluate`` over the pool's reports (biopsy); returns ops run."""
        if self.pool < 2:
            return 0
        scored = sorted(self.reports)
        manifest = self.work / "manifest.csv"
        manifest.write_text(
            "report,ground_truth\n"
            + "".join(f"out/s{k}.score.json,s{k}.gt.geojson\n" for k in scored),
            encoding="utf-8",
        )
        out = self.work / "eval"
        run_cli(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_bytes())
        for name in INDICATOR_KIND:
            cells = summary["indicators"][name]["cells"]
            want = [[0] * 4 for _ in range(4)]
            for sec in (self.sections[k] for k in scored):
                if sec.grades[name] is not None:
                    want[sec.grades[name]][sec.grades[name]] += 1
            check(cells == want, f"evaluate {name}: confusion matrix is not the planted diagonal")
        if tr is not None:
            tr.op = "evaluate"
            pairs = [(self.work / "out" / f"s{k}.score.json", self.work / f"s{k}.gt.geojson")
                     for k in scored]
            matrices = decomposed.evaluate(tr, pairs)
            for name, matrix in matrices.items():
                got = [list(row) for row in matrix.cells]
                check(got == summary["indicators"][name]["cells"],
                      f"decomposed evaluate {name} differs from the CLI's")
        return 1


class RobustnessWorkload:
    """``synth`` of a seeded spec, then ``sensitivity`` on the scene it wrote."""

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.inputs: Optional[inputs.RobustnessInputs] = None
        self.outputs: Dict[str, bytes] = {}

    def _write(self, name: str, data: bytes) -> Path:
        path = self.work / name
        path.write_bytes(data)
        return path

    def setup(self) -> bytes:
        self.inputs = inputs.generate_robustness(self.seed, f"robust-{self.seed}")
        self.work.mkdir(parents=True, exist_ok=True)
        self._write("spec.json", self.inputs.scene_spec)
        self._write("perturb.json", self.inputs.perturbation)
        return self.inputs.scene_spec + self.inputs.perturbation

    def warm_up(self) -> None:
        """``synth`` and two trials of ``sensitivity`` on a spec a quarter of the size."""
        warm = inputs.generate_robustness([self.seed, 1000], "warm", 6, 70, 5, 2125)
        spec = self._write("warm-spec.json", warm.scene_spec)
        pert = self._write("warm-perturb.json", warm.perturbation)
        out = self.work / "warm-out"
        run_cli(["synth", "--spec", str(spec), "--out-dir", str(out)])
        run_cli(["sensitivity", "--scene", str(out / "warm.scene.json"),
                 "--perturb", str(pert), "--trials", "2", "--out-dir", str(out)])
        self._check_baseline(json.loads((out / "warm.sensitivity.json").read_bytes()), warm)

    @staticmethod
    def _check_baseline(sens: dict, truth: inputs.RobustnessInputs) -> None:
        for name in INDICATOR_KIND:
            base = sens["per_indicator"][name]["baseline"]
            check(base == _grade_key(truth.grades[name]),
                  f"{truth.section_id} {name}: baseline {base} is not the planted grade")

    def _same(self, name: str, data: bytes) -> None:
        check(self.outputs.setdefault(name, data) == data, f"{name}: bytes differ between repeats")

    def op(self, i: int) -> Dict[str, float]:
        sid = self.inputs.section_id
        out = self.work / "out"
        t_synth = run_cli(["synth", "--spec", str(self.work / "spec.json"), "--out-dir", str(out)])
        scene = (out / f"{sid}.scene.json").read_bytes()
        gt = json.loads((out / f"{sid}.gt.geojson").read_bytes())["properties"]
        for name in INDICATOR_KIND:
            check(gt.get(f"banff_{name}") == self.inputs.grades[name], f"synth {name}: planted grade")
        t_sens = run_cli(["sensitivity", "--scene", str(out / f"{sid}.scene.json"),
                          "--perturb", str(self.work / "perturb.json"),
                          "--trials", str(SENSITIVITY_TRIALS), "--out-dir", str(out)])
        sens_json = (out / f"{sid}.sensitivity.json").read_bytes()
        sens_csv = (out / f"{sid}.sensitivity.csv").read_bytes()
        sens = json.loads(sens_json)
        self._check_baseline(sens, self.inputs)
        check(sens["trials"] == SENSITIVITY_TRIALS, "sensitivity: trial count")
        for name in INDICATOR_KIND:
            total = sum(sens["per_indicator"][name]["histogram"].values())
            check(total == SENSITIVITY_TRIALS, f"sensitivity {name}: histogram sums to {total}")
        check(len(self.rows(sens_csv)) == SENSITIVITY_TRIALS, "sensitivity: CSV row count")
        self._same("scene", scene)
        self._same("sensitivity.json", sens_json)
        self._same("sensitivity.csv", sens_csv)
        return {"op_s": t_synth + t_sens, "synth_s": t_synth, "sensitivity_s": t_sens}

    @staticmethod
    def rows(csv_bytes: bytes) -> List[tuple]:
        lines = [ln for ln in csv_bytes.decode("utf-8").splitlines() if not ln.startswith("#")]
        return [tuple(ln.split(",")[1:]) for ln in lines[1:]]

    def traced_op(self, i: int, tr: Tracer) -> Dict[str, float]:
        timings = self.op(i)
        sid = self.inputs.section_id
        out = self.work / "traced"
        out.mkdir(exist_ok=True)
        config = json.loads(self.outputs["scene"])["metadata"]["config"]
        scene, _ = decomposed.synth(tr, self.work / "spec.json", out, config)
        check(scene == self.outputs["scene"], "decomposed synth scene differs from the CLI's")
        baseline, rows, counts = decomposed.sensitivity(
            tr, out / f"{sid}.scene.json", self.work / "perturb.json", SENSITIVITY_TRIALS,
            out / f"{sid}.sensitivity.csv",
        )
        check(counts == self.inputs.planted, "decomposed baseline counts differ from planted")
        sens = json.loads(self.outputs["sensitivity.json"])
        check(list(baseline) == [sens["per_indicator"][n]["baseline"] for n in INDICATOR_KIND],
              "decomposed baseline differs from the CLI's")
        check(rows == self.rows(self.outputs["sensitivity.csv"]),
              "decomposed sensitivity rows differ from the CLI's")
        return timings

    def finish(self, tr: Optional[Tracer]) -> int:
        return 0


def make(name: str, seed: int, work: Path):
    if name == "biopsy":
        return SectionWorkload(inputs.BIOPSY, BIOPSY_POOL, None, seed, work)
    if name == "slide":
        return SectionWorkload(inputs.SLIDE, 1, inputs.DEDUP_RADIUS, seed, work)
    if name == "robustness":
        return RobustnessWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")
