"""Deterministic JSON/CSV text output with atomic file writes.

Every float is rendered with 17 significant digits so serialized doubles
round-trip exactly and repeated runs produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path


def format_float(x: float) -> str:
    """17-significant-digit text of a finite float; NaN and inf have no JSON form."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _render(value, indent: int) -> str:
    if isinstance(value, float):  # most leaves are floats: test them first
        return format_float(value)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        pad = "\n" + "  " * (indent + 1)
        items = [f"{json.dumps(str(key))}: {_render(item, indent + 1)}"
                 for key, item in value.items()]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad = "\n" + "  " * (indent + 1)
        items = [_render(item, indent + 1) for item in value]
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    if isinstance(value, (bool, str)) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def json_text(value) -> str:
    return _render(value, 0) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The file gets the mode a plain open(path, "w") would give it under the
    current umask, not the 0600 of mkstemp.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        umask = os.umask(0o022)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
