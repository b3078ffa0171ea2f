"""The two extremal digraphs of degree 2, geodecity 2 and excess 2, plus file IO.

Both catalog entries have order 9, out-degree and in-degree 2 everywhere,
and are 2-geodetic.  They are the only such digraphs up to isomorphism.
Entry A is the one containing a bad pair (see lemmas.classify_pair); entry
B has none, and is distinguished by its pairs of vertices with identical
out-neighbourhoods.
"""

from dataclasses import dataclass
from typing import TextIO

from .core import Digraph

# Largest order a digraph file may declare.  It covers the (2,k,+2) orders
# 2**(k+1) + 1 up to k = 10, far past anything the search reaches, while a
# header alone can no longer make the reader allocate without bound.
MAX_ORDER = 4096

# The most characters of a token or a line that an error message repeats.
_SHOWN = 40


@dataclass(frozen=True)
class CatalogEntry:
    """A named digraph with per-vertex labels and a one-line origin note."""

    id: str
    digraph: Digraph
    names: tuple[str, ...]
    provenance: str


_A_OUT = ((1, 2), (3, 4), (5, 6), (0, 8), (5, 7), (1, 8), (0, 4), (2, 3), (6, 7))
_A_NAMES = ("u", "u1", "u2", "v1", "u4", "u5", "u6", "v", "v4")

_B_OUT = ((1, 2), (3, 4), (5, 6), (2, 7), (5, 6), (0, 8), (1, 7), (0, 8), (3, 4))
_B_NAMES = ("u", "u1", "u2", "v", "u4", "u5", "u6", "v1", "v4")


def catalog_a() -> CatalogEntry:
    """The unique diregular (2,2,+2)-digraph that contains a bad pair."""
    return CatalogEntry(
        id="A",
        digraph=Digraph(9, _A_OUT),
        names=_A_NAMES,
        provenance="unique degree-2 geodecity-2 excess-2 digraph with a bad pair",
    )


def catalog_b() -> CatalogEntry:
    """The unique diregular (2,2,+2)-digraph without bad pairs.

    It carries three pairs of vertices with identical out-neighbourhoods,
    for example vertices 2 and 4 (both to {5, 6}) and vertices 5 and 7
    (both to {0, 8}), which is one quick way to tell it apart from A.
    """
    return CatalogEntry(
        id="B",
        digraph=Digraph(9, _B_OUT),
        names=_B_NAMES,
        provenance="unique degree-2 geodecity-2 excess-2 digraph without bad pairs",
    )


class DigraphFormatError(ValueError):
    """Raised for malformed digraph text, with the offending line or vertex named."""


def write_digraph(g: Digraph) -> str:
    """Render a digraph in the plain text format read back by read_digraph.

    Header line "n <order>", then one line per vertex: the vertex index, a
    colon, and the sorted out-list.  An empty out-list renders as "<v>:"
    with nothing after the colon.  The result ends with a newline and no
    line carries trailing whitespace.
    """
    lines = [f"n {g.n}"]
    for v, targets in enumerate(g.out):
        if targets:
            lines.append(f"{v}: " + " ".join(str(w) for w in targets))
        else:
            lines.append(f"{v}:")
    return "\n".join(lines) + "\n"


def _integer(token: str) -> int:
    """token as an int when it is an optional '-' and ASCII digits, else ValueError.

    int() refuses more than 4,300 digits, so a token of more than 19
    digits loses its leading zeros and keeps its first 19: a number that
    long is out of every range a file has either way, and each message
    shows the token, not the number.
    """
    digits = token.removeprefix("-")
    if not (token.isascii() and digits.isdigit()):
        raise ValueError(token)
    if len(digits) > 19:
        token = token[: len(token) - len(digits)] + (digits.lstrip("0")[:19] or "0")
    return int(token)


def _shown(text: str, show=str) -> str:
    """show(text) for a message, or show() of its first _SHOWN characters and its length."""
    if len(text) <= _SHOWN:
        return show(text)
    return f"{show(text[:_SHOWN])}... ({len(text)} characters)"


def read_digraph(source: str | TextIO) -> Digraph:
    """Parse the text format produced by write_digraph.

    Lines whose first non-blank character is '#' are ignored, as are blank
    lines.  The header may declare an order of at most MAX_ORDER.  A vertex
    may appear at most once; vertices without a line get an empty out-list.
    A number is an optional '-' and ASCII digits.  Parse errors report the
    1-based line number; semantic errors name the vertex.
    """
    text = source if isinstance(source, str) else source.read()
    n: int | None = None
    rows: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "n":
                raise DigraphFormatError(f"line {lineno}: expected header 'n <order>', got {_shown(raw, repr)}")
            token = parts[1]
            try:
                n = _integer(token)
            except ValueError:
                raise DigraphFormatError(f"line {lineno}: order is not an integer: {_shown(token, repr)}") from None
            if n < 0:
                raise DigraphFormatError(f"line {lineno}: order must be non-negative, got {_shown(token)}")
            if n > MAX_ORDER:
                raise DigraphFormatError(f"line {lineno}: order {_shown(token)} exceeds the limit of {MAX_ORDER}")
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise DigraphFormatError(f"line {lineno}: expected '<vertex>: <out-list>', got {_shown(raw, repr)}")
        head = head.strip()
        try:
            v = _integer(head)
        except ValueError:
            raise DigraphFormatError(f"line {lineno}: vertex index is not an integer: {_shown(head, repr)}") from None
        if not 0 <= v < n:
            raise DigraphFormatError(f"line {lineno}: vertex {_shown(head)} out of range 0..{n - 1}")
        if v in rows:
            raise DigraphFormatError(f"line {lineno}: vertex {v} listed twice")
        tokens = tail.split()
        try:
            targets = tuple(map(_integer, tokens))
        except ValueError:
            raise DigraphFormatError(f"line {lineno}: vertex {v} has a non-integer out-neighbour") from None
        for token, w in zip(tokens, targets):
            if not 0 <= w < n:
                raise DigraphFormatError(f"line {lineno}: vertex {v} has out-neighbour {_shown(token)} "
                                         f"out of range 0..{n - 1}")
        if len(set(targets)) != len(targets):
            raise DigraphFormatError(f"line {lineno}: vertex {v} has a repeated out-neighbour")
        rows[v] = targets
    if n is None:
        raise DigraphFormatError("line 1: missing header 'n <order>'")
    # vertices without an out-list line are isolated
    return Digraph(n, [rows.get(v, ()) for v in range(n)])
