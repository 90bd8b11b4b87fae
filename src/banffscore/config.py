"""Run configuration: defaults, config-file parsing, precedence merging.

Precedence is built-in defaults < config file < command-line flags.  A
:class:`RunConfig` checks its own values when it is built, and its snapshot
is echoed verbatim into every output for provenance.

Config files are plain ``key = value`` lines (``#`` starts a comment).
Recognized keys: ``min_confidence``, ``cell_classes`` (comma-separated),
``dedup_radius`` (number or ``none``), ``seed``, ``section_id``,
``alias.<label> = <structure kind>``, ``cell_alias.<label> = <cell kind>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from . import __version__
from .errors import ConfigError, echo, echo_id
from .model import (
    DEFAULT_CELL_ALIASES,
    DEFAULT_STRUCTURE_ALIASES,
    KNOWN_CELL_KINDS,
    OTHER,
    SCORABLE_STRUCTURE_KINDS,
    normalize_label,
)


@dataclass(frozen=True)
class RunConfig:
    """The operating point of one run.  The scoring defaults (min confidence
    0.5, lymphocytes + monocytes, dedup off) are conventional operating
    points, not measured constants.  Construction normalizes ``cell_classes``
    (keeping the first of repeated kinds) and rejects out-of-range values and an empty class list with
    ConfigError, so every instance is a valid config."""

    min_confidence: float = 0.5
    cell_classes: Tuple[str, ...] = KNOWN_CELL_KINDS
    dedup_radius: Optional[float] = None
    seed: Optional[int] = None
    section_id: Optional[str] = None
    structure_aliases: Dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_STRUCTURE_ALIASES)
    )
    cell_aliases: Dict[str, str] = field(default_factory=lambda: dict(DEFAULT_CELL_ALIASES))

    def __post_init__(self):
        if not (math.isfinite(self.min_confidence) and 0.0 <= self.min_confidence <= 1.0):
            raise ConfigError(f"min_confidence={echo(self.min_confidence)} outside [0, 1]")
        radius = self.dedup_radius
        if radius is not None and not (math.isfinite(radius) and radius >= 0.0):
            raise ConfigError(f"dedup_radius={echo(radius)} is not a finite number >= 0")
        kinds = tuple(dict.fromkeys(filter(None, (normalize_label(c).replace(" ", "_") for c in self.cell_classes))))
        for kind in kinds:
            if kind not in KNOWN_CELL_KINDS and kind != OTHER:
                raise ConfigError(f"cell_classes: unknown cell kind {echo(kind)}")
        if not kinds:
            raise ConfigError("cell_classes: expected at least one cell kind, got none")
        object.__setattr__(self, "cell_classes", kinds)

    def snapshot(self) -> dict:
        """The provenance block embedded in every output."""
        return {
            "tool_version": __version__,
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
        raise ConfigError(f"{key}: not a number: {echo(value)}") from None


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
            overrides["cell_classes"] = tuple(value.split(","))
        elif key == "dedup_radius":
            overrides["dedup_radius"] = None if value.lower() == "none" else _parse_float(value, key)
        elif key == "seed":
            try:
                overrides["seed"] = int(value)
            except ValueError:
                raise ConfigError(f"seed: not an integer: {echo(value)}") from None
        elif key == "section_id":
            overrides["section_id"] = value
        elif key.startswith("alias."):
            kind = normalize_label(value).replace(" ", "_")
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"{echo_id(key)}: unknown structure kind {echo(value)}")
            structure_aliases[normalize_label(key[len("alias."):])] = kind
        elif key.startswith("cell_alias."):
            kind = normalize_label(value)
            if kind not in KNOWN_CELL_KINDS:
                raise ConfigError(f"{echo_id(key)}: unknown cell kind {echo(value)}")
            cell_aliases[normalize_label(key[len("cell_alias."):])] = kind
        else:
            raise ConfigError(f"config line {lineno}: unknown key {echo(key)}")
    if structure_aliases:
        overrides["structure_aliases"] = structure_aliases
    if cell_aliases:
        overrides["cell_aliases"] = cell_aliases
    return overrides


_FLAG_NAMES = {"cell_classes": "--classes"}


def merge_config(file_overrides: Optional[dict] = None, flag_overrides: Optional[dict] = None) -> RunConfig:
    """Apply precedence: defaults < file < flags.  Alias overrides extend the
    defaults instead of replacing them.  Each value is checked as it is
    applied, so a bad one raises ConfigError naming its source whichever
    wins."""
    config = RunConfig()
    valid = {f.name for f in fields(RunConfig)}
    for is_file, overrides in ((True, file_overrides), (False, flag_overrides)):
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in valid:
                raise ConfigError(f"unknown config key {echo(key)}")
            if key in ("structure_aliases", "cell_aliases"):
                value = {**getattr(config, key), **value}
            try:
                config = replace(config, **{key: value})
            except ConfigError as exc:
                source = "config file" if is_file else _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
                raise ConfigError(f"{source}: {exc}") from None
    return config
