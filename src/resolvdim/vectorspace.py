"""Nonzero vectors of GF(q)^n, their integer ids and skeleton masks.

A vector is a length-n tuple of field-element reps (integers in 0..q-1)
giving its coefficients over the fixed basis e1..en.  Its id is the
little-endian base-q value of that tuple, so ids run 1..q^n-1 with id 0
(the zero vector) excluded.  The skeleton is the n-bit mask of nonzero
coefficient positions, bit i-1 standing for ei.

Vertex text form used by the CLI and file formats: terms `<coeff?>e<index>`
joined by `+`, coefficient omitted when 1, indices strictly ascending.
Examples: `e1`, `2e1+e2`, `e1+e3`.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import OutOfRange, VertexParseError

DEFAULT_VERTEX_CAP = 1 << 16

_TERM_RE = re.compile(r"(\d*)e(\d+)")


def vertex_count(q: int, n: int) -> int:
    return q ** n - 1


def encode(coeffs: Sequence[int], q: int) -> int:
    """Little-endian base-q id of a coefficient tuple."""
    vid = 0
    for c in reversed(coeffs):
        if not (0 <= c < q):
            raise OutOfRange(f"coefficient {c} outside 0..{q - 1}")
        vid = vid * q + c
    if vid == 0:
        raise OutOfRange("the zero vector is not a vertex")
    return vid


def decode(vid: int, q: int, n: int) -> tuple[int, ...]:
    """Coefficient tuple of a vertex id."""
    if not (1 <= vid < q ** n):
        raise OutOfRange(f"vertex id {vid} outside 1..{q ** n - 1}")
    out = []
    r = vid
    for _ in range(n):
        r, c = divmod(r, q)
        out.append(c)
    return tuple(out)


def skeleton(coeffs: Sequence[int]) -> int:
    """Bit mask of nonzero coefficient positions (bit i-1 for ei)."""
    mask = 0
    for i, c in enumerate(coeffs):
        if c:
            mask |= 1 << i
    return mask


def skeleton_of_id(vid: int, q: int, n: int) -> int:
    return skeleton(decode(vid, q, n))


def vertex_text(vid: int, q: int, n: int) -> str:
    """Render a vertex id in the `<coeff?>e<index>` text form."""
    coeffs = decode(vid, q, n)
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(f"e{i + 1}" if c == 1 else f"{c}e{i + 1}")
    return "+".join(terms)


def parse_vertex(text: str, q: int, n: int) -> int:
    """Parse the vertex text form back to an id.

    Raises VertexParseError with the character position of the offending
    term on malformed input.
    """
    coeffs = [0] * n
    pos = 0
    last_index = 0
    if not text.strip():
        raise VertexParseError("empty vertex", 0)
    for raw in text.split("+"):
        term = raw.strip()
        at = pos + (len(raw) - len(raw.lstrip()))
        if not term:
            raise VertexParseError("empty term", at)
        m = _TERM_RE.fullmatch(term)
        if m is None:
            raise VertexParseError(f"bad term {term!r}", at)
        coeff = int(m.group(1)) if m.group(1) else 1
        index = int(m.group(2))
        if not (1 <= index <= n):
            raise VertexParseError(f"index {index} outside 1..{n}", at)
        if index <= last_index:
            raise VertexParseError("indices must be strictly ascending", at)
        if not (1 <= coeff <= q - 1):
            raise VertexParseError(f"coefficient {coeff} outside 1..{q - 1}", at)
        coeffs[index - 1] = coeff
        last_index = index
        pos += len(raw) + 1
    return encode(coeffs, q)


def parse_vertex_list(text: str, q: int, n: int) -> list[int]:
    """Parse a comma-separated list of vertex texts."""
    items = [part for part in text.split(",")]
    if not any(part.strip() for part in items):
        raise VertexParseError("empty vertex list", 0)
    out = []
    pos = 0
    for part in items:
        stripped = part.strip()
        if not stripped:
            raise VertexParseError("empty vertex in list", pos)
        try:
            out.append(parse_vertex(stripped, q, n))
        except VertexParseError as exc:
            raise VertexParseError(str(exc).rsplit(" (at position", 1)[0],
                                   pos + exc.position) from None
        pos += len(part) + 1
    return out
