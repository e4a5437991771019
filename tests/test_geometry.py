"""Tests for domains, quadrature grids, and the density-constant estimate."""

import math

import numpy as np
import pytest

from qvalued.errors import (
    BelowResolutionError,
    DegenerateDomainError,
    EmptyIntersectionError,
)
from qvalued.geometry import (
    Domain,
    QuadratureGrid,
    a_weighted_constant,
    dyadic_ladder,
    unit_ball_volume,
)


@pytest.fixture(scope="module")
def disk_grid():
    return Domain.ball(2, 1.0).sample(1.0 / 64.0)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_dyadic_ladder():
    ladder = dyadic_ladder(0.8, 3)
    assert list(ladder) == [0.8, 0.4, 0.2, 0.1]
    with pytest.raises(ValueError):
        dyadic_ladder(-1.0, 3)
    with pytest.raises(ValueError):
        dyadic_ladder(1.0, -1)


def test_unit_box_exact_cells():
    grid = Domain.box(2, 0.5, center=[0.5, 0.5]).sample(0.5)
    assert grid.size == 4
    assert np.all(grid.weights == 0.25)
    expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
    assert {tuple(p) for p in np.round(grid.points, 12)} == expected


def test_ball_total_weight(disk_grid):
    assert disk_grid.total_weight() == pytest.approx(math.pi, rel=5e-3)


def test_annulus_total_weight():
    grid = Domain.annulus(2, 0.25, 1.0).sample(1.0 / 64.0)
    assert grid.total_weight() == pytest.approx(
        math.pi * (1.0 - 1.0 / 16.0), rel=1e-2
    )


def test_half_ball_weight_and_side():
    dom = Domain.half_ball(2, 1.0)
    grid = dom.sample(1.0 / 64.0)
    assert grid.total_weight() == pytest.approx(math.pi / 2.0, rel=1e-2)
    assert np.all(grid.points[:, 0] > 0)


def test_weight_positivity_cap(disk_grid):
    h = disk_grid.resolution
    assert np.all(disk_grid.weights > 0)
    assert np.all(disk_grid.weights <= h * h)


def test_convexity_flags():
    assert Domain.half_ball(2, 1.0).is_convex()
    assert Domain.ball(3, 1.0).is_convex()
    assert Domain.box(2, 1.0).is_convex()
    assert not Domain.annulus(2, 0.5, 1.0).is_convex()


def test_degenerate_domains():
    with pytest.raises(DegenerateDomainError):
        Domain.ball(2, 0.0)
    with pytest.raises(DegenerateDomainError):
        Domain.annulus(2, 1.0, 0.5)
    with pytest.raises(DegenerateDomainError):
        Domain.box(0, 1.0)
    with pytest.raises(DegenerateDomainError):
        Domain("gone", 2, radius=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_geometry_is_degenerate(bad):
    for make in (lambda: Domain.ball(2, bad), lambda: Domain.half_ball(2, bad),
                 lambda: Domain.annulus(2, bad, 1.0), lambda: Domain.annulus(2, 0.5, bad),
                 lambda: Domain.box(2, bad), lambda: Domain.ball(2, 1.0, [0.0, bad])):
        with pytest.raises(DegenerateDomainError, match="non-finite"):
            make()


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_sample_refuses_non_finite_resolution(h):
    with pytest.raises(ValueError, match="positive and finite"):
        Domain.ball(2, 1.0).sample(h)


def test_restrict_superset_is_identity(disk_grid):
    sub, idx = disk_grid.restrict(np.zeros(2), 10.0)
    assert sub.size == disk_grid.size
    assert np.array_equal(idx, np.arange(disk_grid.size))


def test_restrict_below_resolution(disk_grid):
    with pytest.raises(BelowResolutionError):
        disk_grid.restrict(np.zeros(2), disk_grid.resolution / 10.0)


def test_restrict_empty_intersection(disk_grid):
    with pytest.raises(EmptyIntersectionError):
        disk_grid.restrict(np.array([50.0, 0.0]), 0.5)


def test_restrict_half_ball_weight(disk_grid):
    sub, _ = disk_grid.restrict(np.zeros(2), 0.5)
    assert sub.total_weight() == pytest.approx(math.pi / 4.0, rel=1e-2)


def test_restrict_weight_monotone(disk_grid):
    last = 0.0
    for rho in [0.1, 0.2, 0.4, 0.8]:
        sub, _ = disk_grid.restrict(np.zeros(2), rho)
        assert sub.total_weight() >= last
        last = sub.total_weight()


def test_contains_strict_interior():
    dom = Domain.half_ball(2, 1.0)
    mask = dom.contains([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.999, 0.0]])
    assert list(mask) == [True, False, False, True]


def test_boundary_points_on_closure():
    ball = Domain.ball(2, 1.0).boundary_points()
    assert np.allclose(np.linalg.norm(ball, axis=1), 1.0)
    ring = np.linalg.norm(Domain.annulus(2, 0.5, 1.0).boundary_points(), axis=1)
    assert set(np.round(ring, 12)) == {0.5, 1.0}
    half = Domain.half_ball(2, 1.0).boundary_points()
    on_arc = np.isclose(np.linalg.norm(half, axis=1), 1.0) & (half[:, 0] >= 0)
    on_wall = np.isclose(half[:, 0], 0.0) & (np.abs(half[:, 1]) <= 1.0)
    assert np.all(on_arc | on_wall)
    box = Domain.box(2, 1.0).boundary_points()
    assert np.allclose(np.abs(box).max(axis=1), 1.0)


def test_a_weighted_ball_closed_form():
    # worst case is a boundary center at rho = diam, giving pi / 4
    est = a_weighted_constant(Domain.ball(2, 1.0), 1.0 / 128.0)
    assert est.value == pytest.approx(math.pi / 4.0, rel=0.03)
    assert est.worst_radius == pytest.approx(2.0)


def test_a_weighted_half_disk_positive():
    est = a_weighted_constant(Domain.half_ball(2, 1.0), 1.0 / 64.0)
    assert est.value > 0.1
    assert est.constant() == est.value


def test_a_weighted_improves_with_sampling():
    dom = Domain.ball(2, 1.0)
    few = a_weighted_constant(dom, 1.0 / 64.0, max_depth=2)
    many = a_weighted_constant(dom, 1.0 / 64.0, max_depth=6)
    assert many.value <= few.value * 1.02


@pytest.mark.parametrize("dom", [
    Domain.ball(2, 1.0), Domain.half_ball(2, 0.7), Domain.box(2, 0.45),
], ids=["ball", "half", "box"])
@pytest.mark.parametrize("max_depth", [0, 2, 10])
def test_a_weighted_radii_are_repeated_halving(dom, max_depth):
    # reference: halve from the diameter while the radius stays at 8h or more
    h = 1.0 / 24.0
    want = []
    for j in range(max_depth + 1):
        rho = dom.diameter() * 2.0 ** (-j)
        if rho < 8.0 * h:
            break
        want.append(rho)
    got = a_weighted_constant(dom, h, max_depth=max_depth).radii
    assert got.tolist() == want


def test_a_weighted_needs_resolvable_radii():
    with pytest.raises(BelowResolutionError):
        a_weighted_constant(Domain.ball(2, 1.0), 0.3)


def test_grid_construction_guards():
    with pytest.raises(ValueError, match="disagree"):
        QuadratureGrid(np.zeros((3, 2)), np.ones(2), 0.1)
    with pytest.raises(ValueError, match="positive"):
        QuadratureGrid(np.zeros((2, 2)), np.array([1.0, -1.0]), 0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid(np.zeros((2, 2)), np.array([1.0, bad]), 0.1)
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid(np.array([[0.0, 0.0], [bad, 0.0]]), np.ones(2), 0.1)
    for bad in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="resolution"):
            QuadratureGrid(np.zeros((2, 2)), np.ones(2), bad)
    with pytest.raises(BelowResolutionError):
        Domain.ball(2, 1.0).sample(1.5)
