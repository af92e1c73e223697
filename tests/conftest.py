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
