"""Dense matrices of exact polynomials, with fraction-free elimination.

Shapes are explicit so that 0xN and Nx0 matrices survive composition; every
operation returns a new matrix.
"""

from __future__ import annotations

from .polyring import Poly, exact_divide


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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeMismatchError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out = Matrix(self.field, self.nrows, other.ncols)
        for i in range(self.nrows):
            row = self.entries[i]
            for j in range(other.ncols):
                acc = Poly.zero(self.field)
                for k in range(self.ncols):
                    if not row[k].is_zero() and not other.entries[k][j].is_zero():
                        acc = acc + row[k] * other.entries[k][j]
                out.entries[i][j] = acc
        return out

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
    """Assemble a matrix from a 2d grid of Matrix blocks (shapes must tile)."""
    row_heights = [row[0].nrows for row in blocks]
    col_widths = [b.ncols for b in blocks[0]] if blocks else []
    for row in blocks:
        for b, w in zip(row, col_widths):
            if b.ncols != w:
                raise ShapeMismatchError("inconsistent block widths")
        if any(b.nrows != row[0].nrows for b in row):
            raise ShapeMismatchError("inconsistent block heights")
    out = Matrix(field, sum(row_heights), sum(col_widths))
    r0 = 0
    for row in blocks:
        c0 = 0
        for b in row:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out.entries[r0 + i][c0 + j] = b.entries[i][j]
            c0 += b.ncols
        r0 += row[0].nrows
    return out


def offsets(sizes) -> list:
    """The running sums 0, s0, s0 + s1, ... of a list of block sizes."""
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return offs


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


def minor(m: Matrix, drop_row: int, drop_col: int) -> Matrix:
    rows = [
        [e for j, e in enumerate(r) if j != drop_col]
        for i, r in enumerate(m.entries) if i != drop_row
    ]
    return Matrix(m.field, m.nrows - 1, m.ncols - 1, rows)


def adjugate(m: Matrix) -> Matrix:
    """The adjugate, entrywise by cofactor determinants (small matrices)."""
    if m.nrows != m.ncols:
        raise ShapeMismatchError("adjugate of a non-square matrix")
    n = m.nrows
    out = Matrix(m.field, n, n)
    for i in range(n):
        for j in range(n):
            cof = bareiss_determinant(minor(m, i, j))
            out.entries[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out
