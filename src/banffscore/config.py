"""Run configuration: defaults, config-file parsing, precedence merging.

Precedence is built-in defaults < config file < command-line flags, and the
merged result is echoed verbatim into every output for provenance.

Config files are plain ``key = value`` lines (``#`` starts a comment).
Recognized keys: ``min_confidence``, ``cell_classes`` (comma-separated),
``dedup_radius`` (number or ``none``), ``seed``, ``section_id``,
``alias.<label> = <structure kind>``, ``cell_alias.<label> = <cell kind>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .model import (
    DEFAULT_CELL_ALIASES,
    DEFAULT_STRUCTURE_ALIASES,
    KNOWN_CELL_KINDS,
    OTHER,
    SCORABLE_STRUCTURE_KINDS,
    normalize_label,
)
from .scoring import ScoringConfig


@dataclass
class RunConfig:
    min_confidence: float = 0.5
    cell_classes: Tuple[str, ...] = KNOWN_CELL_KINDS
    dedup_radius: Optional[float] = None
    seed: Optional[int] = None
    section_id: Optional[str] = None
    structure_aliases: Dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_STRUCTURE_ALIASES)
    )
    cell_aliases: Dict[str, str] = field(default_factory=lambda: dict(DEFAULT_CELL_ALIASES))

    def scoring_config(self) -> ScoringConfig:
        return ScoringConfig(
            min_confidence=self.min_confidence,
            cell_classes=self.cell_classes,
            dedup_radius=self.dedup_radius,
        )

    def snapshot(self) -> dict:
        return {
            "min_confidence": self.min_confidence,
            "cell_classes": list(self.cell_classes),
            "dedup_radius": self.dedup_radius,
            "seed": self.seed,
            "structure_aliases": dict(sorted(self.structure_aliases.items())),
            "cell_aliases": dict(sorted(self.cell_aliases.items())),
        }


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse a config file into an override mapping (RunConfig field names)."""
    overrides: dict = {}
    structure_aliases: Dict[str, str] = {}
    cell_aliases: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "min_confidence":
            overrides["min_confidence"] = _parse_float(value, key)
        elif key == "cell_classes":
            kinds = tuple(normalize_label(v).replace(" ", "_") for v in value.split(",") if v.strip())
            for kind in kinds:
                if kind not in KNOWN_CELL_KINDS and kind != OTHER:
                    raise ConfigError(f"cell_classes: unknown cell kind {kind!r}")
            overrides["cell_classes"] = kinds
        elif key == "dedup_radius":
            overrides["dedup_radius"] = None if value.lower() == "none" else _parse_float(value, key)
        elif key == "seed":
            try:
                overrides["seed"] = int(value)
            except ValueError:
                raise ConfigError(f"seed: not an integer: {value!r}") from None
        elif key == "section_id":
            overrides["section_id"] = value
        elif key.startswith("alias."):
            kind = normalize_label(value).replace(" ", "_")
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"{key}: unknown structure kind {value!r}")
            structure_aliases[normalize_label(key[len("alias."):])] = kind
        elif key.startswith("cell_alias."):
            kind = normalize_label(value)
            if kind not in KNOWN_CELL_KINDS:
                raise ConfigError(f"{key}: unknown cell kind {value!r}")
            cell_aliases[normalize_label(key[len("cell_alias."):])] = kind
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    if structure_aliases:
        overrides["structure_aliases"] = structure_aliases
    if cell_aliases:
        overrides["cell_aliases"] = cell_aliases
    return overrides


def _check_value(name: str, key: str, value) -> None:
    if key == "min_confidence" and not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name}={value!r} outside [0, 1]")
    if key == "dedup_radius" and not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name}={value!r} is not a finite number >= 0")


def merge_config(file_overrides: Optional[dict] = None, flag_overrides: Optional[dict] = None) -> RunConfig:
    """Apply precedence: defaults < file < flags.  Alias overrides extend the
    defaults instead of replacing them.  Values from both sources are
    range-checked here, so a bad one raises ConfigError whichever wins."""
    config = RunConfig()
    valid = {f.name for f in fields(RunConfig)}
    for is_file, overrides in ((True, file_overrides), (False, flag_overrides)):
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in valid:
                raise ConfigError(f"unknown config key {key!r}")
            _check_value(f"config file {key}" if is_file else "--" + key.replace("_", "-"), key, value)
            if key == "structure_aliases":
                config.structure_aliases.update(value)
            elif key == "cell_aliases":
                config.cell_aliases.update(value)
            else:
                setattr(config, key, value)
    return config
