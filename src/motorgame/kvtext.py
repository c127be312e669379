"""The `key = value` text format of catalog, checkpoint and config files.

A file is an optional version line, then `key = value` lines, grouped
under `[name]` section headers unless the file is flat.  Blank lines and
lines starting with `#` are ignored, and a key may appear once per
section.  Floats are written with ``repr``, which reads back every
float64 bit-exactly; arrays are space-separated floats in row-major order.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolationError


@dataclass
class Section:
    name: str | None  # None for the single section of a flat file
    line: int         # line number of the header (0 in a flat file)
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)  # key -> line number

    def parse(self, key: str, conv: Callable[[str], object],
              error: Callable[[str, int], Exception]):
        """``conv`` of the value of ``key``; a ValueError from it raises
        ``error("bad value for KEY: 'TEXT'", line)`` at the key's line."""
        text = self.values[key]
        try:
            return conv(text)
        except ValueError:
            raise error(f"bad value for {key}: {text!r}", self.lines[key]) from None


def read_sections(path, error: Callable[[str, int], Exception],
                  version: str | None = None,
                  version_error: Callable[[str], Exception] | None = None,
                  sectioned: bool = True) -> list[Section]:
    """Parse a file into its sections, in file order.

    Syntax errors raise ``error(message, line_number)``.  With ``version``,
    the first line that is neither blank nor a comment must equal it; a
    line naming the same format at another version raises
    ``version_error(message)`` instead.  A flat file (``sectioned=False``)
    has no headers and comes back as one section.  check_layout checks keys.
    """
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    sections = [] if sectioned else [Section(None, 0)]
    expect_version = version is not None
    for number, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if expect_version:
            if line != version:
                if line.split()[0] == version.split()[0]:
                    raise version_error(
                        f"unsupported version {line!r}, expected {version!r}")
                raise error(f"expected header {version!r}, got {line!r}", number)
            expect_version = False
            continue
        if sectioned and line.startswith("[") and line.endswith("]"):
            sections.append(Section(line[1:-1], number))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"expected key = value, got {line!r}", number)
        if not sections:
            raise error("key outside a [section]", number)
        key = key.strip()
        section = sections[-1]
        if key in section.values:
            raise error(f"duplicate key {key!r}", number)
        section.values[key] = value.strip()
        section.lines[key] = number
    if expect_version:
        raise error(f"empty file (missing header {version!r})", 1)
    return sections


def check_layout(sections: list[Section], keys: dict[str, tuple[str, ...]],
                 error: Callable[[str, int], Exception]) -> None:
    """Check ``sections`` against ``keys`` (section name -> its keys): raise
    ``error(message, line)`` for an unknown section at its header line, an
    unknown key at its own line, or a missing key at its section's header."""
    for section in sections:
        wanted = keys.get(section.name)
        if wanted is None:
            raise error(f"unknown section [{section.name}]", section.line)
        for key, line in section.lines.items():
            if key not in wanted:
                raise error(f"unknown key {key!r} in [{section.name}]", line)
        missing = [key for key in wanted if key not in section.values]
        if missing:
            raise error(f"[{section.name}] is missing {', '.join(missing)}", section.line)


def write_text(path, text: str) -> None:
    """Replace ``path`` by ``text`` atomically: write and fsync a temporary
    file beside it, then rename it over ``path``.  On failure the old file
    is untouched and the temporary file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(text: str, kind: str):
    """Inverse of format_value for a field annotated "int", "float" or "str"."""
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def format_array(arr: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(arr).ravel())


def parse_array(text: str, shape: tuple[int, ...]) -> np.ndarray:
    values = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    if values.size != int(np.prod(shape)):
        raise ContractViolationError(
            f"expected {int(np.prod(shape))} values, got {values.size}")
    return values.reshape(shape)
