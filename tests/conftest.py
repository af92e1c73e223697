import pytest

from veronese import geometry


@pytest.fixture
def kernel_blocks(monkeypatch) -> list:
    """The length of every block of points the curvature kernel runs on, in order;
    curvature_field and global_invariants both run it through curvature_blocks."""
    lengths = []

    def blocks(map_, points, _blocks=geometry.curvature_blocks):
        for block in points:
            lengths.append(len(block))
            yield from _blocks(map_, [block])

    monkeypatch.setattr(geometry, "curvature_blocks", blocks)
    return lengths


@pytest.fixture
def varying_scalar_curvature(monkeypatch):
    """x0^2 added to the scalar curvature of the samples: an integrand that is
    invariant under the antipodal map but genuinely varies."""
    def blocks(map_, points, _blocks=geometry.curvature_blocks):
        for block in points:
            geo = next(_blocks(map_, [block]))
            geo["scalar_curvature_gauss"] = geo["scalar_curvature_gauss"] + block[:, 0] ** 2
            yield geo

    monkeypatch.setattr(geometry, "curvature_blocks", blocks)
