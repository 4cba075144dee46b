import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rotinf import GroundSpace, Prob, build_grid_space, cost_from_metric

# property tests replay the same examples on every run and write nothing: no
# example database, and an unwritable home for hypothesis's source-constant cache
settings.register_profile("rotinf", derandomize=True, database=None, deadline=5000,
                          max_examples=40)
settings.load_profile("rotinf")
set_hypothesis_home_dir(os.devnull)


@pytest.fixture
def two_point_cost():
    """N=2 instance with unit distance: c = [0, 1, 1, 0]."""
    return cost_from_metric(GroundSpace([[0.0], [1.0]]), p=1.0)


@pytest.fixture
def symmetric_half():
    return Prob([0.5, 0.5])


def random_instance(rng, N, alpha=1.0, grid=None, p=1.0, metric="euclidean"):
    """Random ground space (or grid), cost, and Dirichlet marginals."""
    if grid is not None:
        space = build_grid_space(grid)
    else:
        space = GroundSpace(rng.uniform(0.0, 1.0, size=(N, 2)))
    c = cost_from_metric(space, p=p, metric=metric)
    r = Prob.from_weights(rng.dirichlet(np.full(space.n_points, alpha)))
    s = Prob.from_weights(rng.dirichlet(np.full(space.n_points, alpha)))
    return c, r, s


def blob_image(shape, centers, widths, heights, pixel_size=1.0, floor=1e-4):
    """Synthetic intensity image as a sum of Gaussian blobs plus a floor."""
    from rotinf import IntensityImage

    ny, nx = shape
    ys, xs = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    img = np.full(shape, floor, dtype=float)
    for (cy, cx), w, h in zip(centers, widths, heights):
        img += h * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * w ** 2))
    return IntensityImage(intensities=img, pixel_size=pixel_size)
