"""One matrix-column product: no module under ``src/`` other than
``polyring`` and ``matrixops`` names ``dot``.

``Matrix.apply`` is the one product of a matrix with a coordinate column.
The element operators, the Horner steps of a left action, the membership
division and the omega_3 component multiply through it, so each reads
only the nonzero coordinates of its column.
"""

from pathlib import Path

import pytest

from sl2prod.matrixops import Matrix
from sl2prod.polyring import QQ, Poly

from test_iso_owner import name_uses

ROOT = Path(__file__).resolve().parent.parent
NON_OWNERS = [p for p in sorted(ROOT.glob("src/**/*.py"))
              if p.name not in ("polyring.py", "matrixops.py")]


def test_finds_a_dot_use():
    source = ("from ..polyring import Poly, dot\n"
              "from .. import polyring\n\n"
              "def f(row, col, field):\n"
              "    return polyring.dot(zip(row, col), field)\n")
    assert name_uses(source, {"dot"}) == [1, 5]


def test_apply_is_the_matrix_product_on_one_column():
    u, y = Poly.var(QQ, "u"), Poly.var(QQ, "y")
    z = Poly.zero(QQ)
    m = Matrix.from_rows(QQ, [[u, y, z], [Poly.one(QQ), z, u * y]])
    col = [y, z, u - 1]
    product = m @ Matrix.from_rows(QQ, [[c] for c in col])
    assert m.apply(col) == [r[0] for r in product.entries]
    assert m.apply(col) == [u * y, y + (u - 1) * u * y]
    assert all(p is z for p in m.apply([z, z, z]))


@pytest.mark.parametrize("path", NON_OWNERS,
                         ids=[str(p.relative_to(ROOT)) for p in NON_OWNERS])
def test_only_polyring_and_matrixops_call_dot(path):
    assert name_uses(path.read_text(encoding="utf-8"), {"dot"}) == []
