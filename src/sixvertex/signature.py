"""Arity <= 4 signatures: tables, matrix views, S4 action, composition
through the double disequality, holographic transforms.

Bit conventions used everywhere: a signature of arity k stores 2^k values in
lexicographic order of x1..xk with x1 the most significant bit, so
f[0b0011] = f(x1=0, x2=0, x3=1, x4=1). Variable indices in the public API are
1-based (x1..x4); slot s of a grid vertex carries variable x_{s+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .scalar import HALF_SQRT2, I, ONE, ZERO, Scalar, as_scalar

__all__ = [
    "Signature",
    "SixVertexParams",
    "SignatureError",
    "LAMBDA",
    "LAMBDA_BAR",
    "MU",
    "MU_BAR",
    "NU",
    "NU_BAR",
    "Z_BASIS",
    "N_DOUBLE",
    "from_six_vertex",
    "six_vertex_params",
    "all_permutations",
    "matrix_view",
    "signature_from_matrix",
    "compose",
    "mat_mul",
    "permute_variables",
    "holographic_transform",
]

# The six weight-2 strings, as 4-bit integers (x1 = MSB).
LAMBDA, LAMBDA_BAR = 0b0011, 0b1100
MU, MU_BAR = 0b0110, 0b1001
NU, NU_BAR = 0b0101, 0b1010
_WEIGHT2 = frozenset(
    (LAMBDA, LAMBDA_BAR, MU, MU_BAR, NU, NU_BAR)
)


class SignatureError(ValueError):
    pass


def bit_of(index: int, pos: int, arity: int) -> int:
    """Bit of variable x_{pos+1} in a table index."""
    return (index >> (arity - 1 - pos)) & 1


class Signature:
    """Dense value table of an arity <= 4 constraint function."""

    __slots__ = ("arity", "values", "_hash")

    def __init__(self, arity: int, values):
        values = tuple(as_scalar(v) for v in values)
        if not 0 <= arity <= 4:
            raise SignatureError(f"arity {arity} out of range 0..4")
        if len(values) != 1 << arity:
            raise SignatureError(
                f"need {1 << arity} values for arity {arity}, got {len(values)}"
            )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((arity, values)))

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        return Signature, (self.arity, self.values)

    def __getitem__(self, index: int) -> Scalar:
        return self.values[index]

    def __eq__(self, other):
        if isinstance(other, Signature):
            return self.arity == other.arity and self.values == other.values
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values)
        return f"Signature({self.arity}, [{vals}])"

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)

    def is_zero(self) -> bool:
        return not any(self.values)


@dataclass(frozen=True)
class SixVertexParams:
    """Weights (a, x, b, y, c, z) on the pairs (0011,1100), (0110,1001),
    (0101,1010)."""

    a: Scalar
    x: Scalar
    b: Scalar
    y: Scalar
    c: Scalar
    z: Scalar

    @classmethod
    def of(cls, a, x, b, y, c, z) -> SixVertexParams:
        return cls(*(as_scalar(v) for v in (a, x, b, y, c, z)))

    def __iter__(self):
        return iter((self.a, self.x, self.b, self.y, self.c, self.z))

    def pairs(self):
        return ((self.a, self.x), (self.b, self.y), (self.c, self.z))

    def is_twin(self) -> bool:
        return self.a == self.x and self.b == self.y and self.c == self.z

    def scaled(self, k) -> SixVertexParams:
        k = as_scalar(k)
        return SixVertexParams(*(k * v for v in self))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self) + ")"


def from_six_vertex(p: SixVertexParams) -> Signature:
    values = [ZERO] * 16
    values[LAMBDA] = p.a
    values[LAMBDA_BAR] = p.x
    values[MU] = p.b
    values[MU_BAR] = p.y
    values[NU] = p.c
    values[NU_BAR] = p.z
    return Signature(4, values)


def six_vertex_params(f: Signature) -> SixVertexParams | None:
    """Extract (a,x,b,y,c,z) when the support stays on weight-2 strings."""
    if f.arity != 4:
        return None
    if any(f.values[i] for i in range(16) if i not in _WEIGHT2):
        return None
    return SixVertexParams(
        f[LAMBDA], f[LAMBDA_BAR], f[MU], f[MU_BAR], f[NU], f[NU_BAR]
    )


def matrix_view(f: Signature, row_vars, col_vars):
    """4x4 matrix of an arity-4 signature, as a tuple of rows, with rows
    (x_i, x_j) and columns (x_k, x_l), both in lexicographic order."""
    row_vars = tuple(row_vars)
    col_vars = tuple(col_vars)
    if f.arity != 4:
        raise SignatureError("matrix_view needs arity 4")
    if sorted(row_vars + col_vars) != [1, 2, 3, 4]:
        raise SignatureError(
            f"row/col vars {row_vars}, {col_vars} must partition x1..x4"
        )
    rows = []
    for r in range(4):
        row = []
        for c in range(4):
            bits = [0] * 4
            bits[row_vars[0] - 1] = (r >> 1) & 1
            bits[row_vars[1] - 1] = r & 1
            bits[col_vars[0] - 1] = (c >> 1) & 1
            bits[col_vars[1] - 1] = c & 1
            idx = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
            row.append(f[idx])
        rows.append(tuple(row))
    return tuple(rows)


def signature_from_matrix(entries) -> Signature:
    """Inverse of the canonical view: entries indexed (x1x2, x4x3)."""
    values = [ZERO] * 16
    for r in range(4):
        for c in range(4):
            b1, b2 = (r >> 1) & 1, r & 1
            b4, b3 = (c >> 1) & 1, c & 1
            values[(b1 << 3) | (b2 << 2) | (b3 << 1) | b4] = entries[r][c]
    return Signature(4, values)


def mat_mul(A, B):
    """Exact matrix product; matrices are sequences of rows."""
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in zip(*B))
        for row in A
    )


# Double disequality: connecting two edge pairs by neq_2 reverses the index.
N_DOUBLE = tuple(
    tuple(ONE if r + c == 3 else ZERO for c in range(4)) for r in range(4)
)


def compose(fM, gM) -> Signature:
    """Link the column variables of f to the row variables of g through two
    disequalities, given their matrix_view rows fM and gM; the result has
    signature matrix fM * N * gM, read with rows (x1, x2) and columns
    (x4, x3) of the new arity-4 signature."""
    prod = mat_mul(mat_mul(fM, N_DOUBLE), gM)
    return signature_from_matrix(prod)


def permute_variables(f: Signature, perm) -> Signature:
    """g with g(y1..yk) = f(y_perm(1), ..., y_perm(k)); perm is 1-based."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, f.arity + 1)):
        raise SignatureError(f"{perm} is not a permutation of 1..{f.arity}")
    k = f.arity
    values = [ZERO] * (1 << k)
    for y in range(1 << k):
        src = 0
        for i in range(k):
            src = (src << 1) | bit_of(y, perm[i] - 1, k)
        values[y] = f[src]
    return Signature(k, values)


def all_permutations():
    """The 24 variable permutations, in a fixed deterministic order."""
    return [tuple(p) for p in permutations((1, 2, 3, 4))]


def holographic_transform(f: Signature, T) -> Signature:
    """T^(tensor arity) applied to f as a column vector."""
    k = f.arity
    T = tuple(tuple(as_scalar(e) for e in row) for row in T)
    values = []
    for y in range(1 << k):
        acc = ZERO
        for x in range(1 << k):
            if not f[x]:
                continue
            coef = f[x]
            for i in range(k):
                coef = coef * T[bit_of(y, i, k)][bit_of(x, i, k)]
            acc = acc + coef
        values.append(acc)
    return Signature(k, values)


Z_BASIS = (
    (HALF_SQRT2, HALF_SQRT2),
    (I * HALF_SQRT2, -(I * HALF_SQRT2)),
)

NEQ2_MATRIX = ((ZERO, ONE), (ONE, ZERO))

