import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nohidelab.jsonio import csv_text, format_float, json_text, write_text_atomic


class TestFormatFloat:
    def test_round_trips_hard_values(self):
        values = [1 / 3, math.pi, 0.1, 1e-300, 1.7976931348623157e308,
                  -0.0, 0.5, 123456789.123456789, math.sin(math.pi / 10) ** 2]
        for v in values:
            assert float(format_float(v)) == v

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"a": bad})
        with pytest.raises(ValueError, match="non-finite"):
            csv_text(["a"], [[bad]])

    def test_integral_floats_keep_a_point(self):
        assert format_float(1.0) == "1.0"
        assert format_float(-2.0) == "-2.0"
        assert format_float(0.5) == "0.5"


class TestJsonText:
    def test_parses_back_and_preserves_values(self):
        payload = {
            "name": "run",
            "values": [0.1, 1.0, 3],
            "nested": {"flag": True, "none": None, "text": "a\"b"},
            "empty_list": [],
            "empty_map": {},
        }
        text = json_text(payload)
        assert json.loads(text) == payload

    def test_float_precision_survives(self):
        x = math.sin(math.pi / 20) ** 2
        text = json_text({"p": x})
        assert json.loads(text)["p"] == x

    def test_deterministic(self):
        payload = {"a": [1.5, {"b": 2.5}], "c": "d"}
        assert json_text(payload) == json_text(payload)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=5), inner, max_size=4),
        max_leaves=20,
    ))
    def test_layout_matches_json_dumps_indent_2(self, value):
        assert json_text(value) == json.dumps(value, indent=2) + "\n"

    def test_layout_with_floats_golden(self):
        payload = {"p": 0.1, "xs": [1.0, -2.5e-17, 1 / 3, (2, [])], "m": {}, "b": False}
        assert json_text(payload) == (
            '{\n'
            '  "p": 0.10000000000000001,\n'
            '  "xs": [\n'
            '    1.0,\n'
            '    -2.4999999999999999e-17,\n'
            '    0.33333333333333331,\n'
            '    [\n'
            '      2,\n'
            '      []\n'
            '    ]\n'
            '  ],\n'
            '  "m": {},\n'
            '  "b": false\n'
            '}\n'
        )


def test_csv_text_layout():
    text = csv_text(["a", "b"], [[0.5, 1], [1.0, 2]])
    assert text == "a,b\n0.5,1\n1.0,2\n"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    write_text_atomic(target, "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    write_text_atomic(target, "new")
    assert target.read_text() == "new"


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_atomic_write_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out.json", "payload\n")
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("payload\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "out.json").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)
