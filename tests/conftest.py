import pytest

from edgering import build_triangular_cactus
from edgering import fixtures as fx

_NAMES = fx.names()


def _fixture_factory(name):
    @pytest.fixture(scope="session", name=name)
    def _fix():
        return fx.load(name)

    return _fix


for _name in _NAMES:
    globals()[_name] = _fixture_factory(_name)


# Results are cached on each Graph instance, so these hand out the same
# per-name session graphs rather than loading second copies.
@pytest.fixture(scope="session")
def all_fixture_graphs(request):
    return {name: request.getfixturevalue(name) for name in _NAMES}


@pytest.fixture(scope="session")
def small_fixture_graphs(request):
    return {
        name: request.getfixturevalue(name)
        for name in ("triangle", "bowtie", "friend3", "cac3", "t1min", "t2min")
    }


# `edgering gen --n 3 --s 1,0,1,0,1,0`: the smallest cactus with three
# pairwise-exceptional pendant triangles, hence an odd cycle set
@pytest.fixture(scope="session")
def d13():
    return build_triangular_cactus(triangles=3, pendants=(1, 0, 1, 0, 1, 0))
