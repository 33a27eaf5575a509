import json
import math
import os
import stat
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nohidelab.jsonio import (
    ROWS_PER_BATCH,
    csv_text,
    format_float,
    json_text,
    write_text_atomic,
)

from conftest import assert_same

# Where ".17g" text and the ".0" suffix rule change shape: signed zeros,
# integral values around 2**53 and the 1e17 switch to exponent form,
# subnormals, the float extremes and the 1e-5 switch to exponent form.
EDGE_FLOATS = [0.0, -0.0, 1.0, -7.0, 2.0 ** 53 - 1, 2.0 ** 53 + 1, 1e16, 1e17, -1e17,
               9.999999999999998e16, 5e-324, -2.2250738585072e-309,
               sys.float_info.max, -sys.float_info.max, 1e-5]

# Strings and keys as json.dumps quotes them: quotes, backslashes, control
# characters, non-ASCII and astral text, and lone surrogates, which only
# \u escapes can carry.
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
                                     "\U0001f600"])
                    | st.characters(exclude_categories=()) | st.characters(categories=["Cs"]),
                    max_size=5)


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
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"a": np.array([[0.5, 1.0], [2.0, bad]])})

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

    @settings(max_examples=200)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | JSON_TEXT,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(JSON_TEXT, inner, max_size=4),
        max_leaves=20,
    ))
    @example({"caf\u00e9": "\u00e9\u2028\U0001f600"})  # non-ASCII text, as \u escapes
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

    def test_subclasses_render_as_their_base_types(self):
        class Count(int):
            pass

        class Ratio(float):
            pass

        class Tag(str):
            def __str__(self):
                return "shown"

        payload = {Tag("key"): [True, False, None, np.float64(0.1), np.float64(-0.0),
                                Count(7), Ratio(2.0), Tag('a"b')],
                   True: 1, 3: 2, 0.5: 3}
        assert json_text(payload) == (
            '{\n'
            '  "shown": [\n'
            '    true,\n'
            '    false,\n'
            '    null,\n'
            '    0.10000000000000001,\n'
            '    -0.0,\n'
            '    7,\n'
            '    2.0,\n'
            '    "a\\"b"\n'
            '  ],\n'
            '  "True": 1,\n'
            '  "3": 2,\n'
            '  "0.5": 3\n'
            '}\n'
        )
        with pytest.raises(TypeError, match="int64"):
            json_text([np.int64(1)])


class TestArrayLeaf:
    """A 2-D float64 array renders as its .tolist() does through the list path."""

    @settings(max_examples=400)
    @given(hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(0, 3)),
        elements=st.sampled_from(EDGE_FLOATS)
        | st.floats(allow_nan=False, allow_infinity=False),
    ) | hnp.arrays(
        # Zero-dense, as most states are: a background of +0.0 or -0.0, and
        # scattered zeros of either sign, integral and non-integral values.
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(0, 3)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 1e17, 0.5, -1e-300]),
        fill=st.sampled_from([0.0, -0.0]),
    ))
    @example(np.array([[0.1, -0.0]]))  # .16g and .17g texts differ on 0.1
    def test_matches_list_path(self, arr):
        assert json_text({"a": arr}) == json_text({"a": arr.tolist()})
        assert json_text(arr) == json_text(arr.tolist())

    def test_join_across_batches_golden(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((ROWS_PER_BATCH + 1, 2))
        arr[::7] = np.round(arr[::7] * 1e3)
        arr[:, 1][::5] = -0.0
        text = json_text({"a": arr})
        assert_same(text, json_text({"a": arr.tolist()}))
        assert np.array_equal(np.array(json.loads(text)["a"]), arr)

    def test_zero_rows_across_batches(self):
        # 8 batches: whole batches of 0.0 and of -0.0, then rows of each
        # kind mixed, with signed zeros and integral values inside dense rows.
        rng = np.random.default_rng(16)
        arr = rng.standard_normal((8 * ROWS_PER_BATCH, 2))
        arr[:ROWS_PER_BATCH] = 0.0
        arr[ROWS_PER_BATCH:2 * ROWS_PER_BATCH] = -0.0
        kind = rng.integers(0, 4, len(arr))
        kind[:2 * ROWS_PER_BATCH] = 4
        arr[kind == 0] = 0.0
        arr[kind == 1] = -0.0
        arr[kind == 2] = np.round(arr[kind == 2])
        cells = arr[kind == 3]
        cells[rng.random(cells.shape) < 0.25] = -0.0
        arr[kind == 3] = cells
        assert_same(json_text(arr), json_text(arr.tolist()))

    def test_strided_view_renders_its_values(self):
        arr = np.arange(12.0).reshape(4, 3)[::2, ::-1]
        assert json_text({"a": arr}) == json_text({"a": arr.tolist()})

    @pytest.mark.parametrize("arr", [np.zeros(3), np.zeros((1, 1, 1)),
                                     np.zeros((2, 2), dtype=complex)],
                             ids=["1-D", "3-D", "complex"])
    def test_other_arrays_are_unknown_types(self, arr):
        with pytest.raises(TypeError, match="ndarray"):
            json_text({"a": arr})


def test_csv_text_layout():
    text = csv_text(["a", "b"], [[0.5, 1], [1.0, 2]])
    assert text == "a,b\n0.5,1\n1.0,2\n"


# The temp file's name must stay within NAME_MAX (255 bytes) too.
@pytest.mark.parametrize("name, old", [("out.json", None), ("a" * 245 + ".json", None),
                                       ("out.json", "old")], ids=["new", "long-name", "existing"])
def test_atomic_write_leaves_only_the_target(tmp_path, name, old):
    if old is not None:
        (tmp_path / name).write_text(old)
    write_text_atomic(tmp_path / name, "payload\n")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [(name, "payload\n")]


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_atomic_write_failure_leaves_the_target_as_it_was(tmp_path, failing_rename, existed):
    target = tmp_path / "out.json"
    if existed:
        target.write_text("old")
    with pytest.raises(OSError, match="rename failed"):
        write_text_atomic(target, "new")
    assert [p.read_text() for p in tmp_path.iterdir()] == (["old"] if existed else [])


# A new file gets 0666 under the umask; an existing one keeps its mode.
@pytest.mark.parametrize("umask, existing", [
    *(pytest.param(umask, None, id=oct(umask)) for umask in (0o022, 0o002, 0o077)),
    *(pytest.param(umask, mode, id=f"{oct(umask)}-over-{oct(mode)}")
      for umask in (0o022, 0o077) for mode in (0o600, 0o640))])
def test_atomic_write_mode_follows_umask(tmp_path, umask, existing):
    if existing is not None:
        for name in ("out.json", "plain.json"):
            (tmp_path / name).write_text("old\n")
            (tmp_path / name).chmod(existing)
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out.json", "payload\n")
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("payload\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "out.json").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)


# A symlinked target is written through, as open() would write it: the link
# stays a link, and the file it names gets the bytes and keeps its mode. The
# temp file is made beside that file, so none is left beside the link.
def test_atomic_write_through_a_symlink_keeps_the_link(tmp_path):
    (tmp_path / "links").mkdir()
    (tmp_path / "data").mkdir()
    real, link = tmp_path / "data" / "real.json", tmp_path / "links" / "link.json"
    real.write_text("old\n")
    real.chmod(0o600)
    link.symlink_to("../data/real.json")
    write_text_atomic(link, "payload\n")
    assert link.is_symlink() and os.readlink(link) == "../data/real.json"
    assert real.read_text() == "payload\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.json", "links",
                                                           "real.json"]


# A dangling link gets its target created, at 0666 under the umask.
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_atomic_write_through_a_dangling_symlink_creates_its_target(tmp_path, umask):
    link = tmp_path / "link.json"
    link.symlink_to("real.json")
    old = os.umask(umask)
    try:
        write_text_atomic(link, "payload\n")
    finally:
        os.umask(old)
    assert link.is_symlink()
    assert (tmp_path / "real.json").read_text() == "payload\n"
    assert stat.S_IMODE((tmp_path / "real.json").stat().st_mode) == 0o666 & ~umask


# The umask is process-wide, so the write leaves it to the kernel and never
# sets it, not even to read it.
def test_atomic_write_to_a_new_file_never_calls_umask(tmp_path, monkeypatch):
    def fail(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", fail)
    write_text_atomic(tmp_path / "out.json", "payload\n")
    assert (tmp_path / "out.json").read_text() == "payload\n"
