import pytest

from veronese import construct, geometry
from veronese.quadmap import QuadMap


@pytest.fixture
def kernel_blocks(monkeypatch) -> list:
    """The length of every block of points the curvature kernel runs on, in order;
    curvature_field runs second_fundamental_form once per chunk."""
    lengths = []

    def kernel(map_, points, _kernel=geometry.second_fundamental_form):
        lengths.append(len(points))
        return _kernel(map_, points)

    monkeypatch.setattr(geometry, "second_fundamental_form", kernel)
    return lengths


@pytest.fixture
def unbalanced_level2_map(monkeypatch):
    """The real level-2 map with its last (balance) component scaled by 1 + 1e-11:
    the images stay on the unit sphere within the kernel's tolerance, but the map
    is no congruence, and its curvature integrands vary."""
    original = construct.build

    def unbalanced(n, field):
        map_ = original(n, field)
        if (field, n) != ("real", 2):
            return map_
        comps = map_.components.copy()
        comps[-1] *= 1.0 + 1e-11
        return QuadMap(n, comps)

    monkeypatch.setattr(construct, "build", unbalanced)
