import pytest

from sl2prod.tworep import make_L1
from sl2prod.product.core import build_product, check_construction


@pytest.fixture(scope="session")
def V():
    return make_L1()


@pytest.fixture(scope="session")
def P(V):
    P = build_product(V)
    assert check_construction(P)["status"] == "pass"
    return P
