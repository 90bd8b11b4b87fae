"""Class labels: alias mapping and the string form scenes store."""

from __future__ import annotations

import pytest

from banffscore.model import (
    DEFAULT_CELL_ALIASES,
    DEFAULT_STRUCTURE_ALIASES,
    GLOMERULUS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    OTHER,
    SCORABLE_STRUCTURE_KINDS,
    CellClass,
    StructureClass,
)


@pytest.mark.parametrize(
    "cls, kinds, defaults, noun, foreign",
    [
        pytest.param(StructureClass, SCORABLE_STRUCTURE_KINDS, DEFAULT_STRUCTURE_ALIASES, "structure",
                     LYMPHOCYTE, id="structure"),
        pytest.param(CellClass, KNOWN_CELL_KINDS, DEFAULT_CELL_ALIASES, "cell", GLOMERULUS, id="cell"),
    ],
)
def test_class_label_contract(cls, kinds, defaults, noun, foreign):
    # default aliases, matched after normalization (case, underscores, whitespace runs)
    for label, kind in defaults.items():
        assert cls.from_label(label) == cls(kind)
        assert cls.from_label(f"  {label.upper().replace(' ', '_')}\t") == cls(kind)
    # custom aliases replace the defaults; an alias to a kind of the other type maps to other
    custom = {"my label": kinds[-1], "stray": foreign}
    assert cls.from_label("My_Label", custom) == cls(kinds[-1])
    default_label = next(iter(defaults))
    assert cls.from_label(default_label, custom) == cls(OTHER, default_label)
    assert cls.from_label("stray", custom) == cls(OTHER, "stray")
    # None and unmapped labels give other, keeping the label as given
    assert cls.from_label(None) == cls(OTHER, "")
    assert cls.from_label(None, custom) == cls(OTHER, "")
    assert cls.from_label("Neutrophil_Cluster ") == cls(OTHER, "Neutrophil_Cluster ")
    assert cls.from_label(7) == cls(OTHER, "7")
    # the string form round-trips for every kind, other and other:<label>
    assert [cls(k).to_string() for k in kinds] == list(kinds)
    assert cls(OTHER).to_string() == "other"
    assert cls(OTHER, "a: b").to_string() == "other:a: b"
    for value in (*(cls(k) for k in kinds), cls(OTHER), cls(OTHER, "a: b"), cls(OTHER, "other")):
        assert cls.from_string(value.to_string()) == value
    assert cls.from_string("other:") == cls(OTHER)
    # an unknown string, including a kind of the other type, is a ValueError naming the type
    for text in ("bogus", foreign, "Other", ""):
        with pytest.raises(ValueError) as excinfo:
            cls.from_string(text)
        assert str(excinfo.value) == f"unknown {noun} class {text!r}"


def test_class_label_types_stay_distinct():
    assert StructureClass(OTHER) != CellClass(OTHER)
    assert StructureClass(OTHER, "x") != CellClass(OTHER, "x")
    assert repr(StructureClass(GLOMERULUS)) == "StructureClass(kind='glomerulus', label='')"
    assert repr(CellClass(OTHER, "x")) == "CellClass(kind='other', label='x')"
    assert len({StructureClass(GLOMERULUS), StructureClass(GLOMERULUS), CellClass(LYMPHOCYTE)}) == 2
