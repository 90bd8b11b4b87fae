"""SVG overlay rendering."""

from __future__ import annotations

from banffscore.model import GLOMERULUS, SectionScene
from banffscore.render import CELL_COLORS, STRUCTURE_COLORS, render_svg
from banffscore.scoring import score_section
from banffscore.synth import SceneSpec, generate_scene

from conftest import mk_detection, mk_instance, square


def test_empty_scene_renders_canvas_rect_only():
    svg = render_svg(SectionScene(section_id="empty")).decode()
    assert svg.startswith("<?xml")
    assert svg.count("<rect") == 1
    assert svg.count("<path") == 0
    assert svg.count("<circle") == 0
    assert svg.rstrip().endswith("</svg>")


def test_element_counts_match_scene():
    scene = SectionScene(
        section_id="one",
        instances=[mk_instance("g1", GLOMERULUS, square(50.0, 50.0, 20.0))],
        detections=[mk_detection(f"d{j}", 45.0 + j * 2.0, 50.0) for j in range(5)],
    )
    svg = render_svg(scene).decode()
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 5
    assert STRUCTURE_COLORS[GLOMERULUS] in svg
    assert CELL_COLORS["lymphocyte"] in svg


def test_deterministic_bytes_for_fixture():
    spec = SceneSpec(
        section_id="render-7",
        glomerulus_cells=(5, 0),
        ptc_cells=(3,),
        artery_cells=(0,),
        background_cells=15,
        seed=7,
    )
    scene, _ = generate_scene(spec)
    assert render_svg(scene) == render_svg(scene)
    again, _ = generate_scene(spec)
    assert render_svg(scene) == render_svg(again)


def test_report_adds_count_labels():
    scene = SectionScene(
        section_id="lab",
        instances=[mk_instance("g1", GLOMERULUS, square(50.0, 50.0, 20.0))],
        detections=[mk_detection(f"d{j}", 45.0 + j * 2.0, 50.0) for j in range(4)],
    )
    bare = render_svg(scene).decode()
    labeled = render_svg(scene, score_section(scene)).decode()
    assert "<text" not in bare
    assert labeled.count("<text") == 1
    assert ">4</text>" in labeled


def test_holes_rendered_as_evenodd_subpaths():
    scene = SectionScene(
        section_id="holes",
        instances=[
            mk_instance("g1", GLOMERULUS, square(50.0, 50.0, 20.0), (square(50.0, 50.0, 5.0),))
        ],
    )
    svg = render_svg(scene).decode()
    assert svg.count("<path") == 1
    assert 'fill-rule="evenodd"' in svg
    assert svg.count("Z") == 2  # exterior + hole subpath


def test_hostile_ids_give_well_formed_svg():
    from xml.dom import minidom

    ids = ["a<b&c", 'q"uote>', "ctl\x01char"]
    scene = SectionScene(
        section_id="sec--id-",
        instances=[
            mk_instance(iid, GLOMERULUS, square(50.0 + 60.0 * k, 50.0, 20.0))
            for k, iid in enumerate(ids)
        ],
        detections=[mk_detection("d0", 50.0, 50.0)],
    )
    doc = minidom.parseString(render_svg(scene, score_section(scene)))
    titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
    assert titles == ["a<b&c", 'q"uote>', "ctl\ufffdchar"]
    (comment,) = [n for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE]
    assert "--" not in comment.data and "sec" in comment.data
