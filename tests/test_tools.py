"""The table generator in tools/ still rebuilds the bundled table exactly."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from warpdeg.table import default_table_path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "build_table.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("build_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_table_renders_the_bundled_table_byte_for_byte():
    tool = load_tool()
    rendered = tool.render_table(tool.build_entries()).encode("utf-8")
    assert rendered == default_table_path().read_bytes()
