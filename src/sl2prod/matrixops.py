"""Dense matrices of exact polynomials, with fraction-free elimination.

Shapes are explicit so that 0xN and Nx0 matrices survive composition; every
operation returns a new matrix.  ``Matrix.apply`` is the one matrix-column
product, and it reads only the column's nonzero coordinates.
"""

from __future__ import annotations

from .polyring import Poly, dot, exact_divide


class ShapeMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class Matrix:
    __slots__ = ("nrows", "ncols", "entries", "field")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            z = Poly.zero(field)
            entries = [[z for _ in range(ncols)] for _ in range(nrows)]
        self.entries = entries

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        m = cls(field, n, n)
        one = Poly.one(field)
        for i in range(n):
            m.entries[i][i] = one
        return m

    @classmethod
    def zero(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols)

    @classmethod
    def from_rows(cls, field, rows) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        return cls(field, nrows, ncols, [list(r) for r in rows])

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def set(self, r: int, c: int, value: Poly) -> None:
        self.entries[r][c] = value

    def apply(self, col: list) -> list:
        """The column ``self @ col``, reading only the nonzero coordinates
        of ``col``; a zero column gives ``nrows`` shared zero polynomials."""
        support = [(j, q) for j, q in enumerate(col) if q.terms]
        if not support:
            return [Poly.zero(self.field)] * self.nrows
        return [dot(((row[j], q) for j, q in support), self.field)
                for row in self.entries]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeMismatchError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = [self.apply([r[j] for r in other.entries])
                for j in range(other.ncols)]
        return Matrix(self.field, self.nrows, other.ncols,
                      [[c[i] for c in cols] for i in range(self.nrows)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatchError("matrix addition shape mismatch")
        return Matrix(self.field, self.nrows, self.ncols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols,
                      [[-a for a in r] for r in self.entries])

    def scale(self, p) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols,
                      [[a * p for a in r] for r in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def __hash__(self):
        return hash((self.nrows, self.ncols))

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.entries for a in r)

    def __str__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"<{self.nrows}x{self.ncols}>"
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.entries) + "]"

    __repr__ = __str__


def block_matrix(field, blocks) -> "Matrix":
    """Assemble a matrix from a 2d grid of Matrix blocks: row i is as tall
    as its first block and column j as wide as the first row's block j, and
    a block of another shape raises ShapeMismatchError."""
    return place_blocks(field, [row[0].nrows for row in blocks],
                        [b.ncols for b in blocks[0]] if blocks else [],
                        {(i, j): b for i, row in enumerate(blocks)
                         for j, b in enumerate(row)})


def offsets(sizes) -> list:
    """The running sums 0, s0, s0 + s1, ... of a list of block sizes."""
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return offs


def pick(m: Matrix, rows, cols) -> "Matrix":
    """The submatrix of ``m`` on the listed rows and columns, in order."""
    return Matrix(m.field, len(rows), len(cols),
                  [[m.entries[r][c] for c in cols] for r in rows])


def place_blocks(field, row_sizes, col_sizes, blocks: dict) -> "Matrix":
    """The matrix tiled by ``row_sizes`` x ``col_sizes`` that holds
    ``blocks[(i, j)]`` at tile (i, j) and zero on every other tile."""
    roffs, coffs = offsets(row_sizes), offsets(col_sizes)
    out = Matrix(field, roffs[-1], coffs[-1])
    for (i, j), b in blocks.items():
        if (b.nrows, b.ncols) != (row_sizes[i], col_sizes[j]):
            raise ShapeMismatchError(
                f"block ({i}, {j}) is {b.nrows}x{b.ncols}, expected "
                f"{row_sizes[i]}x{col_sizes[j]}")
        for r, row in enumerate(b.entries, roffs[i]):
            out.entries[r][coffs[j]:coffs[j + 1]] = row
    return out


def block_diagonal(field, blocks) -> "Matrix":
    """The block-diagonal matrix of a list of blocks."""
    return place_blocks(field, [b.nrows for b in blocks],
                        [b.ncols for b in blocks],
                        {(k, k): b for k, b in enumerate(blocks)})


def kron_identity_left(n: int, m: Matrix) -> Matrix:
    """The block-diagonal matrix I_n (x) m."""
    return block_diagonal(m.field, [m] * n)


def bareiss_determinant(m: Matrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise ShapeMismatchError("determinant of a non-square matrix")
    n = m.nrows
    field = m.field
    if n == 0:
        return Poly.one(field)
    a = [list(r) for r in m.entries]
    sign = 1
    prev = Poly.one(field)
    for k in range(n - 1):
        # pivot search down the k-th column
        pivot_row = None
        for i in range(k, n):
            if not a[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return Poly.zero(field)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = exact_divide(num, prev)
            a[i][k] = Poly.zero(field)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def adjugate(m: Matrix) -> Matrix:
    """The adjugate, entrywise by cofactor determinants (small matrices)."""
    if m.nrows != m.ncols:
        raise ShapeMismatchError("adjugate of a non-square matrix")
    n = m.nrows
    out = Matrix(m.field, n, n)
    for i in range(n):
        rows = m.entries[:i] + m.entries[i + 1:]
        for j in range(n):
            cof = bareiss_determinant(Matrix(
                m.field, n - 1, n - 1, [r[:j] + r[j + 1:] for r in rows]))
            out.entries[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out
