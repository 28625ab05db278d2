import os

# BLAS at one thread, as the benchmark runs. The suite is many small
# matrix products; at the default thread count one test file took over
# 300 s beside another busy job instead of 15 s. This has to happen
# before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from util import corpus_graphs  # noqa: E402


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def o2(corpus):
    return corpus["O2"]


@pytest.fixture(scope="session")
def g2(corpus):
    return corpus["G2"]


@pytest.fixture(scope="session")
def c3(corpus):
    return corpus["C3"]
