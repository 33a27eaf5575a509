"""Deterministic JSON/CSV text output with atomic file writes.

Every float is rendered with 17 significant digits so serialized doubles
round-trip exactly and repeated runs produce byte-identical files. A 2-D
float64 ndarray is a leaf: it renders exactly as its .tolist() would, in
batches of rows, without a Python list per row.
"""
from __future__ import annotations

import json
import math
import os
import stat
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

# Rows of an array leaf formatted at once: bounds the Python floats and
# strings alive together, whatever the array's length.
ROWS_PER_BATCH = 8192


def format_float(x: float) -> str:
    """17-significant-digit text of a finite float; NaN and inf have no JSON form."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _render(value, indent: int) -> str:
    # Most values are floats, exact ints, strs, dicts and lists: test them
    # first, and an exact list without the slower Mapping test. A string is
    # quoted by the function json.dumps quotes it with.
    if isinstance(value, float):
        return format_float(value)
    kind = type(value)
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if kind is not list and (kind is dict or isinstance(value, Mapping)):
        if not value:
            return "{}"
        pad = "\n" + "  " * (indent + 1)
        items = [f"{encode_basestring_ascii(str(key))}: {_render(item, indent + 1)}"
                 for key, item in value.items()]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad = "\n" + "  " * (indent + 1)
        # an exact int, as in every id list, is rendered without a call
        items = [str(item) if type(item) is int else _render(item, indent + 1)
                 for item in value]
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64:
        return _render_rows(value, indent)
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _render_rows(value: np.ndarray, indent: int) -> str:
    """The text _render gives value.tolist(), built ROWS_PER_BATCH rows at a time."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite float {float(value[~finite][0])!r}")
    if not len(value):
        return "[]"
    outer = "\n" + "  " * (indent + 1)
    inner = outer + "  "
    width = value.shape[1]
    first, last = ("[" + inner, outer + "]") if width else ("[", "]")
    cell_sep, row_sep = "," + inner, last + "," + outer + first
    batches = []
    for start in range(0, len(value), ROWS_PER_BATCH):
        block = value[start:start + ROWS_PER_BATCH]
        flat = block.ravel()
        # Zeros, most cells of a sparse state, are not formatted: "0.0" for now.
        cells = ["0.0"] * len(flat)
        nonzero = np.flatnonzero(flat)
        for i, x in zip(nonzero.tolist(), flat[nonzero].tolist()):
            cells[i] = format(x, ".17g")
        # Where format_float's text differs: integral values below 1e17 in
        # magnitude, exactly those .17g prints with neither "." nor "e", take
        # ".0", and -0.0 takes its sign. +0.0, whose bits are all zero, is done.
        fix = (flat == np.floor(flat)) & (np.abs(flat) < 1e17) & (flat.view(np.int64) != 0)
        for i in np.flatnonzero(fix).tolist():
            cells[i] = "-0.0" if cells[i] == "0.0" else cells[i] + ".0"
        # A row is one join of its cells. Rows, and then batches, are joined
        # by the text that closes one row and opens the next.
        rows = zip(*[iter(cells)] * width) if width else [()] * len(block)
        batches.append(row_sep.join(map(cell_sep.join, rows)))
    return "[" + outer + first + row_sep.join(batches) + last + outer[:-2] + "]"


def json_text(value) -> str:
    return _render(value, 0) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target's directory, then rename into place.

    The file gets what a plain open(path, "w") would give it: a symlink is
    written through to its target, an existing file keeps its mode, and a new
    one is created at 0666 under the umask, which the kernel applies.
    """
    path = Path(path).resolve()
    # At most 56 characters of the name (224 bytes in UTF-8), 16 hex digits
    # and ".tmp": the temp name fits NAME_MAX (255 bytes) for any target.
    # O_EXCL never reuses a name, nor follows a link at it.
    tmp = path.with_name(f"{path.name[:56]}{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            try:
                os.fchmod(handle.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
