"""The table generator in tools/ still rebuilds the bundled table exactly,
and its O(c) test of reducedness agrees with the chord test."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from warpdeg.bracket import is_classical
from warpdeg.codes import GaussCode
from warpdeg.families import ozawa_twist, twist_minimal
from warpdeg.oracle import random_codes
from warpdeg.table import default_table_path, load_table

TOOL = Path(__file__).resolve().parents[1] / "tools" / "build_table.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("build_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_table_renders_the_bundled_table_byte_for_byte():
    tool = load_tool()
    rendered = tool.render_table(tool.build_entries()).encode("utf-8")
    with open(default_table_path(), "rb") as table:
        assert rendered == table.read()


def chord_is_reduced(diagram: GaussCode) -> bool:
    """The O(c^2) reference: every chord interleaves another chord."""
    pos: dict[int, list[int]] = {}
    for i, label in enumerate(diagram.labels):
        pos.setdefault(label, []).append(i)
    for p, q in pos.values():
        inside = sum(
            1 for r, s in pos.values() if (p < r < q) != (p < s < q)
        )
        if inside == 0:
            return False
    return True


def test_face_test_of_reducedness_agrees_with_the_chord_test():
    tool = load_tool()
    diagrams = [d for entry in load_table()
                for d in entry.minimal_diagrams + entry.extra_diagrams]
    diagrams += [twist_minimal(n) for n in range(1, 12)]
    diagrams += [ozawa_twist(n) for n in range(1, 8)]
    diagrams += [code for code in random_codes(20000, 9, 5) if is_classical(code)]
    verdicts = [tool.is_reduced(d) for d in diagrams]
    assert verdicts == [chord_is_reduced(d) for d in diagrams]
    assert True in verdicts and False in verdicts
