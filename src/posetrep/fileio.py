"""Text formats: posets, dimension vectors, weights, representations,
projection systems, and flow reports.

All serializers are canonical and deterministic, so serialize(parse(s)) is
byte-stable for files this package wrote.  Complex entries are written as
``re+imj`` with full float precision (repr round-trip).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from .bound_quiver import DimVector
from .errors import ParseError
from .linrep import SubspaceRep, Weight, make_rep
from .moment import FlowReport, ProjectionSystem
from .poset import Poset, build_poset


# ---------------------------------------------------------------------------
# scalars

def format_complex(z: complex) -> str:
    z = complex(z)
    re, im = float(z.real), float(z.imag)
    sign = "+" if (im >= 0 or im != im) else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def parse_complex(token: str, line: int | None = None) -> complex:
    try:
        return complex(token.strip().replace(" ", ""))
    except ValueError:
        raise ParseError(f"bad complex number {token!r}", line) from None


def _fraction(token: str, line: int | None = None) -> Fraction:
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational number {token!r}", line) from None


# ---------------------------------------------------------------------------
# posets

def parse_poset(text: str) -> Poset:
    """Parse the poset text format.

    Lines are ``elem <id>`` and ``cover <id> < <id>``; ``#`` starts a
    comment; blank lines and extra whitespace are ignored.
    """
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] == "elem":
            if len(parts) != 2 or len(parts[1].split()) != 1:
                raise ParseError("expected 'elem <id>'", lineno)
            elements.append(parts[1].strip())
        elif parts[0] == "cover":
            rest = parts[1] if len(parts) == 2 else ""
            sides = rest.split("<")
            if len(sides) != 2 or not sides[0].strip() or not sides[1].strip():
                raise ParseError("expected 'cover <id> < <id>'", lineno)
            covers.append((sides[0].strip(), sides[1].strip()))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return build_poset(elements, covers)


def serialize_poset(p: Poset) -> str:
    """Elements in stored order (grouped dimension vectors and weights are
    read against that order), covers sorted."""
    lines = [f"elem {e}" for e in p.elements]
    lines += [f"cover {a} < {b}" for a, b in sorted(p.covers())]
    return "\n".join(lines) + "\n"


def load_poset(path: str) -> Poset:
    with open(path, encoding="utf-8") as fh:
        return parse_poset(fh.read())


def save_poset(p: Poset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_poset(p))


# ---------------------------------------------------------------------------
# dimension vectors and weights

def parse_dim_vector(text: str, poset: Poset | None = None) -> DimVector:
    """Parse ``d0; d_1, d_2, ...``; extra semicolons act as commas."""
    head, _, tail = text.partition(";")
    try:
        root = int(head.strip())
    except ValueError:
        raise ParseError(f"bad root dimension {head!r}") from None
    rest = tail.replace(";", ",")
    entries = [root]
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            entries.append(int(tok))
        except ValueError:
            raise ParseError(f"bad dimension entry {tok!r}") from None
    d = DimVector(tuple(entries))
    if poset is not None:
        d.validate(poset)
    return d


def parse_dim_groups(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Parse ``d0; g11, g12; g21, ...`` keeping the semicolon grouping."""
    chunks = text.split(";")
    if len(chunks) < 2:
        raise ParseError("expected 'd0; entries...'")
    try:
        root = int(chunks[0].strip())
        groups = tuple(
            tuple(int(tok.strip()) for tok in chunk.split(",") if tok.strip())
            for chunk in chunks[1:]
        )
    except ValueError:
        raise ParseError(f"bad dimension entries in {text!r}") from None
    return root, groups


def serialize_dim_vector(d: DimVector) -> str:
    return f"{d.entries[0]}; " + ", ".join(str(x) for x in d.entries[1:])


def parse_weight(text: str, poset: Poset) -> Weight:
    """Parse ``chi0; chi_1, chi_2, ...`` with rational entries."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise ParseError("expected 'chi0; chi_1, ...'")
    chi0 = _fraction(head)
    entries = [_fraction(tok) for tok in tail.replace(";", ",").split(",") if tok.strip()]
    if len(entries) != len(poset):
        raise ParseError(
            f"weight has {len(entries)} element entries, poset needs {len(poset)}"
        )
    return Weight(chi0, dict(zip(poset.elements, entries)))


def serialize_weight(w: Weight, poset: Poset) -> str:
    return f"{w.chi0}; " + ", ".join(str(w.chi[e]) for e in poset.elements)


# ---------------------------------------------------------------------------
# matrices

def _format_matrix(m: np.ndarray) -> list[str]:
    return [", ".join(format_complex(z) for z in row) for row in m.tolist()]


def _parse_rows(lines, start: int, nrows: int, ncols: int) -> tuple[np.ndarray, int]:
    rows = []
    idx = start
    while len(rows) < nrows:
        if idx >= len(lines):
            raise ParseError(f"unexpected end of file, expected {nrows} matrix rows")
        lineno, line = lines[idx]
        idx += 1
        entries = [parse_complex(tok, lineno) for tok in line.split(",")]
        if len(entries) != ncols:
            raise ParseError(f"expected {ncols} entries, got {len(entries)}", lineno)
        rows.append(entries)
    m = np.array(rows, dtype=complex) if rows else np.zeros((0, ncols), dtype=complex)
    return m, idx


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _read_blocks(
    text: str, base_dir: str, kind: str, keyword: str, attr: str,
    headers: tuple[str, ...] = (), square: bool = False,
):
    """Read the layout shared by representation and projection files.

    The file starts with ``poset <path>``, ``ambient <d0>`` and one line per
    extra header keyword, in that order.  Blocks ``<keyword> <elem> <attr>
    <k>`` follow, at most one per element, with 0 <= k <= d0; each is
    followed by d0 matrix rows of k entries (d0 entries when ``square``),
    and by no rows when that count is 0.  Returns the poset, its path as
    written, d0, the text after each extra header keyword, and per element
    k and the matrix.
    """
    lines = _content_lines(text)
    if not lines or not lines[0][1].startswith("poset "):
        raise ParseError(f"{kind} file must start with 'poset <path>'")
    poset_path = lines[0][1][len("poset ") :].strip()
    poset = load_poset(os.path.join(base_dir, poset_path))  # keeps an absolute path
    names = ("ambient",) + headers
    body = len(names) + 1
    if len(lines) < body or any(
        not line.startswith(name + " ") for (_, line), name in zip(lines[1:], names)
    ):
        wanted = " and ".join(f"'{name} ...'" for name in names)
        raise ParseError(f"expected {wanted} after the poset line")
    lineno, line = lines[1]
    tokens = line.split()
    if len(tokens) != 2 or not tokens[1].isdecimal():
        raise ParseError("bad ambient dimension", lineno)
    ambient = int(tokens[1])
    extra = [line.split(None, 1)[1] for _, line in lines[2:body]]
    blocks: dict[str, tuple[int, np.ndarray]] = {}
    idx = body
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if len(parts) != 4 or parts[0] != keyword or parts[2] != attr:
            raise ParseError(f"expected '{keyword} <elem> {attr} <k>'", lineno)
        elem, k = parts[1], parts[3]
        if not k.isdecimal() or int(k) > ambient:
            raise ParseError(f"bad {attr} {k!r}, need 0..{ambient}", lineno)
        k = int(k)
        if elem in blocks:
            raise ParseError(f"duplicate {keyword} block for {elem!r}", lineno)
        ncols = ambient if square else k
        if ncols:
            m, idx = _parse_rows(lines, idx + 1, ambient, ncols)
        else:
            m, idx = np.zeros((ambient, 0), dtype=complex), idx + 1
        blocks[elem] = (k, m)
    unknown = set(blocks) - set(poset.elements)
    if unknown:
        raise ParseError(f"{keyword} blocks for unknown elements {sorted(unknown)}")
    return poset, poset_path, ambient, extra, blocks


# ---------------------------------------------------------------------------
# subspace representations

def serialize_rep(rep: SubspaceRep, poset_path: str) -> str:
    lines = [f"poset {poset_path}", f"ambient {rep.ambient_dim}"]
    for e in rep.poset.elements:
        q = rep.spans[e]
        lines.append(f"span {e} cols {q.shape[1]}")
        if q.shape[1]:
            lines.extend(_format_matrix(q))
    return "\n".join(lines) + "\n"


def parse_rep(text: str, base_dir: str = ".") -> tuple[SubspaceRep, str]:
    """Parse a representation file; returns the rep and the poset path used."""
    poset, poset_path, ambient, _, blocks = _read_blocks(
        text, base_dir, "representation", "span", "cols"
    )
    spans = {e: m for e, (_, m) in blocks.items()}
    # Keep stored matrices verbatim when they are already orthonormal, so
    # that reserialization is byte-stable; raw spans get orthonormalized.
    orthonormal = all(
        q.shape[1] == 0
        or np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-8
        for q in spans.values()
    )
    rep = make_rep(poset, ambient, spans)
    if orthonormal:
        rep = SubspaceRep(poset, ambient, {e: spans.get(e, rep.spans[e]) for e in poset.elements})
    return rep, poset_path


def load_rep(path: str) -> tuple[SubspaceRep, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_rep(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def save_rep(rep: SubspaceRep, path: str, poset_path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_rep(rep, poset_path))


# ---------------------------------------------------------------------------
# projection systems

def serialize_projection_system(ps: ProjectionSystem, poset_path: str) -> str:
    lines = [
        f"poset {poset_path}",
        f"ambient {ps.ambient_dim}",
        f"weight {serialize_weight(ps.weight, ps.poset)}",
    ]
    for e in ps.poset.elements:
        lines.append(f"projection {e} rank {ps.ranks[e]}")
        lines.extend(_format_matrix(ps.projections[e]))
    return "\n".join(lines) + "\n"


def parse_projection_system(text: str, base_dir: str = ".") -> tuple[ProjectionSystem, str]:
    poset, poset_path, _, (weight,), blocks = _read_blocks(
        text, base_dir, "projection", "projection", "rank", ("weight",), square=True
    )
    ranks = {e: k for e, (k, _) in blocks.items()}
    projections = {e: m for e, (_, m) in blocks.items()}
    missing = set(poset.elements) - set(projections)
    if missing:
        raise ParseError(f"missing projection blocks for {sorted(missing)}")
    return ProjectionSystem(poset, parse_weight(weight, poset), projections, ranks), poset_path


def load_projection_system(path: str) -> tuple[ProjectionSystem, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_projection_system(
            fh.read(), base_dir=os.path.dirname(os.path.abspath(path))
        )


def save_projection_system(ps: ProjectionSystem, path: str, poset_path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_projection_system(ps, poset_path))


# ---------------------------------------------------------------------------
# flow reports

def report_to_json(report: FlowReport | dict) -> str:
    """The report as indented JSON; ``report`` may also be the dict of
    :meth:`FlowReport.as_dict`, when the caller has built it already."""
    payload = report if isinstance(report, dict) else report.as_dict()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
