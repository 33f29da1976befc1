"""Signature grids: 4-regular multigraphs with ordered ports and neq_2 edges.

An edge joins two ports (vertex, slot); the two edge ends carry complementary
bits, which is exactly the orientation semantics of the six-vertex model
(port bit 1 = edge points into that vertex at that end). Self-loops and
parallel edges are first-class.

A SignatureGrid is valid once built: its constructor runs validate and
raises GridError unless every vertex has arity 4 and each of its ports
lies on exactly one edge. Code that takes a grid does not check it again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .scalar import ScalarParseError, format_scalar, parse_scalar
from .signature import (
    Signature,
    SixVertexParams,
    from_six_vertex,
    six_vertex_params,
)

__all__ = [
    "Port",
    "SignatureGrid",
    "GridError",
    "validate",
    "build_torus",
    "grid_to_json",
    "grid_from_json",
    "signature_to_json",
    "signature_from_json",
]


class Port(NamedTuple):
    vertex: int
    slot: int


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class SignatureGrid:
    """vertices: id -> arity-4 signature; edges: unordered port pairs,
    each port on exactly one edge. Checked when built, so a grid that
    exists is valid."""

    vertices: dict[int, Signature]
    edges: tuple[tuple[Port, Port], ...]

    @classmethod
    def build(cls, vertices, edges) -> SignatureGrid:
        edges = tuple(
            (Port(*e[0]), Port(*e[1])) for e in edges
        )
        return cls(dict(vertices), edges)

    def __post_init__(self):
        self.assert_valid()

    def assert_valid(self):
        errors = validate(self)
        if errors:
            raise GridError("; ".join(errors))
        return self


def validate(grid: SignatureGrid) -> list[str]:
    """Empty list when every port of every vertex sits on exactly one edge."""
    errors = []
    seen: dict[Port, int] = {}
    for i, (p, q) in enumerate(grid.edges):
        for port in (p, q):
            if port.vertex not in grid.vertices:
                errors.append(f"edge {i}: unknown vertex {port.vertex}")
                continue
            arity = grid.vertices[port.vertex].arity
            if not 0 <= port.slot < arity:
                errors.append(
                    f"edge {i}: slot {port.slot} out of range for vertex "
                    f"{port.vertex} (arity {arity})"
                )
                continue
            if port in seen:
                errors.append(
                    f"port (v{port.vertex}, slot {port.slot}) used by edges "
                    f"{seen[port]} and {i}"
                )
            else:
                seen[port] = i
    if len(seen) == 4 * len(grid.vertices) and all(
        sig.arity == 4 for sig in grid.vertices.values()
    ):
        # every port of every vertex is on an edge: nothing left to name
        return errors
    for v, sig in grid.vertices.items():
        if sig.arity != 4:
            errors.append(f"vertex {v}: arity {sig.arity}, grids need 4")
            continue
        for slot in range(4):
            if Port(v, slot) not in seen:
                errors.append(f"port (v{v}, slot {slot}) not on any edge")
    return errors


def build_torus(n: int, p: SixVertexParams) -> SignatureGrid:
    """n x n torus; slots 0..3 are the N, E, S, W ports of each site."""
    if n < 2:
        raise GridError("torus needs n >= 2")
    sig = from_six_vertex(p)
    vertices = {r * n + c: sig for r in range(n) for c in range(n)}
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            east = r * n + (c + 1) % n
            south = ((r + 1) % n) * n + c
            edges.append((Port(v, 1), Port(east, 3)))
            edges.append((Port(v, 2), Port(south, 0)))
    return SignatureGrid(vertices, tuple(edges))


def signature_to_json(f: Signature):
    p = six_vertex_params(f)
    if p is not None:
        return {"six_vertex": [format_scalar(v) for v in p]}
    return {
        "arity": f.arity,
        "values": [format_scalar(v) for v in f.values],
    }


def _json_list(obj, key):
    """obj[key], which must be a JSON list: a string would be read one
    character at a time."""
    vals = obj[key]
    if not isinstance(vals, list):
        raise GridError(f"{key} must hold a JSON list, got {type(vals).__name__}")
    return vals


def signature_from_json(obj) -> Signature:
    if "six_vertex" in obj:
        vals = _json_list(obj, "six_vertex")
        if len(vals) != 6:
            raise GridError("six_vertex needs exactly 6 scalars")
        return from_six_vertex(
            SixVertexParams(*(parse_scalar(v) for v in vals))
        )
    values = _json_list(obj, "values")
    return Signature(obj["arity"], [parse_scalar(v) for v in values])


def grid_to_json(grid: SignatureGrid):
    return {
        "vertices": [
            {"id": v, "signature": signature_to_json(sig)}
            for v, sig in sorted(grid.vertices.items())
        ],
        "edges": [
            [[p.vertex, p.slot], [q.vertex, q.slot]] for p, q in grid.edges
        ],
    }


def _json_int(x, what: str) -> int:
    """x, which must be a JSON integer: int() would truncate 1.9, read
    true as 1 and "3" as 3."""
    if type(x) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def _json_port(end) -> Port:
    return Port(_json_int(end[0], "vertex id"), _json_int(end[1], "slot"))


def grid_from_json(obj) -> SignatureGrid:
    try:
        vertices = {}
        for item in obj["vertices"]:
            v = _json_int(item["id"], "vertex id")
            if v in vertices:
                raise GridError(f"duplicate vertex id {v}")
            vertices[v] = signature_from_json(item["signature"])
        edges = tuple((_json_port(e[0]), _json_port(e[1])) for e in obj["edges"])
    except (GridError, ScalarParseError):
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        # TypeError: an id or slot that is not a JSON integer;
        # ValueError: a SignatureError
        raise GridError(f"malformed grid json: {exc}") from exc
    return SignatureGrid(vertices, edges)


def load_grid(path: str) -> SignatureGrid:
    with open(path) as fh:
        return grid_from_json(json.load(fh))


def save_grid(grid: SignatureGrid, path: str):
    with open(path, "w") as fh:
        json.dump(grid_to_json(grid), fh, indent=1)
        fh.write("\n")
