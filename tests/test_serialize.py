"""File output formats: JSON stability, CSV shape, SVG determinism."""

import json

import numpy as np

from sinailab.oseledets import LyapunovSpectrum
from sinailab.serialize import (
    spectrum_csv_rows,
    svg_line_chart,
    write_csv,
    write_json,
)


def test_json_stable_bytes(tmp_path):
    obj = {"b": 1.5, "a": [1, 2, {"z": 0.1, "y": -3.25}]}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    write_json(p1, obj)
    write_json(p2, json.loads(p1.read_text()))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rfc4180_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    raw = path.read_bytes()
    assert raw == b"a,b\r\n1,2\r\n3,4\r\n"


def test_spectrum_csv_shape():
    spec = LyapunovSpectrum(np.array([0.9, -0.9]), 100, np.array([0.0, 0.0]))
    header, rows = spectrum_csv_rows(spec)
    assert header == ["index", "exponent", "std_error"]
    assert len(rows) == 2 and rows[0][0] == 0


def test_svg_deterministic(tmp_path):
    series = [("pesin", [0.0, 0.1, 0.2], [0.69, 0.68, 0.66],
               [0.001, 0.002, 0.001])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_line_chart(p1, series, "h vs t", "t", "h")
    svg_line_chart(p2, series, "h vs t", "t", "h")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("<svg") and "polyline" in text
