"""Points of C^d as numpy complex vectors, plus text/JSON conversions.

A point is always a 1-d ``numpy.ndarray`` of ``complex128``; dimension is a
runtime value.  Helpers here coerce user input (scalars, tuples, lists) and
implement the ``a+bi`` literal syntax used by the CLI and the
``[[re, im], ...]`` pair lists used by the JSON interfaces.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DimensionMismatch, InvalidDomain

# a lone i/j (optionally signed) needs an explicit coefficient before
# handing the literal to Python's complex() parser
_BARE_UNIT_RE = re.compile(r"(?<![\d.j])j")
_FRACTION_RE = re.compile(r"^([+-]?\d+(?:\.\d*)?)/(\d+(?:\.\d*)?)(j?)$")


def as_point(z, dim: int | None = None) -> np.ndarray:
    """Coerce ``z`` to a C^d point; validate finiteness and dimension."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1:
        raise InvalidDomain(f"a point must be a flat coordinate list, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDomain("point coordinates must be finite")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def parse_complex(text: str) -> complex:
    """Parse one ``a+bi`` literal ("1.5-0.5i", "2i", "i", "-3", "1/3")."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    frac = _FRACTION_RE.match(s)
    if frac:
        value = float(frac.group(1)) / float(frac.group(2))
        return complex(0.0, value) if frac.group(3) else complex(value, 0.0)
    s = _BARE_UNIT_RE.sub("1j", s)
    try:
        value = complex(s)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not (abs(value.real) < float("inf") and abs(value.imag) < float("inf")):
        raise ValueError(f"non-finite complex literal {text!r}")
    return value


def parse_point(text: str) -> np.ndarray:
    """Parse a comma-separated point, one ``a+bi`` literal per coordinate."""
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("empty point literal")
    return as_point([parse_complex(p) for p in parts])


def point_to_json(z) -> list[list[float]]:
    arr = as_point(z)
    return [[float(c.real), float(c.imag)] for c in arr]


def point_from_json(data) -> np.ndarray:
    return as_point([complex(re_, im_) for re_, im_ in data])
