import pytest

import quadcantor as qc
from quadcantor import make_field


@pytest.fixture(scope="session")
def gauss():
    return make_field(-1)


@pytest.fixture(scope="session")
def eisenstein():
    return make_field(-3)


# module scope: each test module gets its own spec, so its orbit graphs too
@pytest.fixture(scope="module")
def cantor(gauss):
    return qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)])


@pytest.fixture(scope="module")
def gaussian_four(gauss):
    return qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])
