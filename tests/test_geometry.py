"""Tests for domains, quadrature grids, and dyadic ladders."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qvalued import certify, geometry, io
from qvalued.errors import (
    BelowResolutionError,
    DegenerateDomainError,
    EmptyIntersectionError,
)
from qvalued.geometry import (
    Domain,
    QuadratureGrid,
    _lattice_directions,
    dyadic_ladder,
    neighbour_table,
    squared_distances,
    unit_ball_volume,
)
from qvalued.points import SampledQFunction
from qvalued.polyfit import QPolynomial, best_fit


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


@pytest.mark.parametrize("rho0, depth", [
    (math.nan, 2), (math.inf, 2), (0.5, 2.5), (0.5, 2.0),
])
def test_dyadic_ladder_refuses_non_finite_base_or_non_integral_depth(rho0, depth):
    with pytest.raises(ValueError, match="ladder"):
        dyadic_ladder(rho0, depth)


def test_dyadic_ladder_accepts_numpy_integer_depth():
    assert list(dyadic_ladder(0.8, np.int64(2))) == [0.8, 0.4, 0.2]


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


@pytest.mark.parametrize("center", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0]])
def test_restriction_refuses_a_non_finite_center(disk_grid, center):
    # a NaN center used to read as an empty ball
    with pytest.raises(ValueError, match="center must be finite"):
        disk_grid.restrict_indices(center, 0.5)
    with pytest.raises(ValueError, match="center must be finite"):
        disk_grid.restrict(center, 0.5)


def test_restriction_refuses_a_nan_radius(disk_grid):
    with pytest.raises(ValueError, match="radius must not be NaN"):
        disk_grid.restrict_indices([0.0, 0.0], math.nan)


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


@pytest.mark.parametrize("n, h", [(1, 1.0 / 256.0), (2, 1.0 / 64.0), (3, 1.0 / 16.0)])
def test_squared_distances_are_the_bytes_of_the_summed_squares(n, h):
    grid = Domain.ball(n, 1.0).sample(h)
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-0.5, 0.5, n), grid.points[7]):
        want = np.sum((grid.points - x) ** 2, axis=1)
        assert squared_distances(grid.points, x).tobytes() == want.tobytes()
        assert np.array_equal(grid.restrict_indices(x, 0.4),
                              np.nonzero(want <= 0.4 * 0.4)[0])
    # strided columns: every other column of a wider array, and a
    # Fortran-ordered copy
    wide = np.repeat(grid.points, 2, axis=1)[:, ::2]
    assert not wide.flags.c_contiguous
    for points in (wide, np.asfortranarray(grid.points)):
        for x in (rng.uniform(-0.5, 0.5, n), grid.points[7]):
            want = np.sum((points - x) ** 2, axis=1)
            assert squared_distances(points, x).tobytes() == want.tobytes()


def test_grid_arrays_are_private_read_only_copies():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    wts = np.ones(3)
    grid = QuadratureGrid(pts, wts, 0.5)
    pts[0, 0] = 9.0
    wts[0] = 9.0
    assert grid.points[0, 0] == 0.0 and grid.weights[0] == 1.0
    sub, _ = grid.restrict(np.zeros(2), 1.5)
    for g in (grid, sub):
        with pytest.raises(ValueError, match="read-only"):
            g.points[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.weights[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.points += 1.0
    with pytest.raises(ValueError, match="read-only"):
        sub.parent_index[0] = 1


def test_array_dataclasses_compare_and_hash_by_identity():
    grid = Domain.ball(2, 1.0).sample(0.25)
    twin = Domain.ball(2, 1.0).sample(0.25)
    assert np.array_equal(grid.points, twin.points)
    assert grid == grid and grid != twin
    poly = QPolynomial(np.zeros(2), 1, np.ones((2, 1, 3)))
    u = SampledQFunction(grid, poly.eval(grid.points))
    assert len({grid, twin, poly, u}) == 4


def _assert_lattice_is_built_table(grid, depth):
    want = neighbour_table(grid.points, grid.resolution, _lattice_directions(grid.dim),
                           depth)
    got = grid.lattice(depth)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, h", [(1, 1.0 / 64.0), (2, 1.0 / 32.0), (3, 1.0 / 8.0)])
def test_restriction_lattice_gathers_the_parent_table(n, h):
    """A restriction's lattice, gathered from its parent's table, is the
    table built on its own points; deeper requests rebuild, shallower ones
    slice."""
    top = Domain.ball(n, 1.0).sample(h)
    rng = np.random.default_rng(n)
    center = rng.uniform(-0.3, 0.3, n)
    sub, idx = top.restrict(center, 0.6)
    subsub, idx2 = sub.restrict(center + 0.1, 0.35)
    assert sub.parent is top and np.array_equal(sub.parent_index, idx)
    assert subsub.parent is top and np.array_equal(subsub.parent_index, idx[idx2])
    # holds the parent's last node, which a -1 in the parent table must not reach
    corner, _ = top.restrict(top.points[-1], 0.4)
    for depth in (2, 1, 5, 3, 4):
        for grid in (top, sub, subsub, corner):
            _assert_lattice_is_built_table(grid, depth)


@pytest.mark.parametrize("make", [
    lambda: Domain.ball(2, 1.0).sample(1.0 / 80.0),
    # every coordinate its own key: a rank box would hold 3,229^2 cells,
    # about 200 times the table's bytes
    lambda: QuadratureGrid(np.random.default_rng(0).uniform(-1.0, 1.0, (3228, 2)),
                           np.ones(3228), 1e-9),
], ids=["disk", "scattered"])
def test_lattice_build_peak_memory_is_a_few_tables(make):
    grid = make()
    tracemalloc.start()
    try:
        table = grid.lattice(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table.nbytes


def test_lattice_of_a_grid_read_back_from_csv(tmp_path):
    grid = Domain.annulus(2, 0.3, 1.0).sample(1.0 / 24.0)
    path = tmp_path / "annulus.csv"
    io.write_samples_csv(path, SampledQFunction(grid, grid.points[:, None, :1]))
    back = io.read_samples_csv(path, None).grid
    sub, _ = back.restrict([0.5, -0.2], 0.45)
    for depth in range(1, 6):
        for g in (back, sub, sub.restrict([0.6, -0.1], 0.2)[0]):
            _assert_lattice_is_built_table(g, depth)


# ---------------------------------------------------------------------------
# the ball memo


def _kept_nodes(grid):
    return sum(idx.size for idx, _ in grid._memo.get("balls", {}).values())


def test_restrictions_of_one_ball_share_its_memo():
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    a, idx_a = grid.restrict([0.1, -0.2], 0.4)
    b, idx_b = grid.restrict(np.array([[0.1, -0.2]]), np.float64(0.4))
    assert a is not b and idx_a is idx_b and a._memo is b._memo
    a.lattice(2)
    assert b._memo["lattice"] is a._memo["lattice"]
    # another ball, or the same one restricted from the restriction, has its own
    c, _ = grid.restrict([0.1, -0.2], 0.41)
    d, _ = a.restrict([0.1, -0.2], 0.4)
    assert c._memo is not a._memo and d._memo is not a._memo
    assert d.parent is grid and np.array_equal(d.points, a.points)


def test_kept_ball_nodes_never_exceed_the_grid_size():
    """A grid keeps balls while their node counts sum to at most its size;
    a ball past that budget is restricted as a kept one is."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    twin = QuadratureGrid(grid.points, grid.weights, grid.resolution)
    rng = np.random.default_rng(5)
    asked = set()
    for _ in range(40):
        center, radius = rng.uniform(-0.8, 0.8, 2), rng.uniform(0.1, 1.2)
        sub, idx = grid.restrict(center, radius)
        asked.add((center.tobytes(), radius))
        assert np.array_equal(idx, twin.restrict_indices(center, radius))
        inner, inner_idx = sub.restrict(center, max(0.5 * radius, 0.07))
        assert np.array_equal(inner.points, sub.points[inner_idx])
        assert _kept_nodes(grid) <= grid.size and _kept_nodes(sub) <= sub.size
    assert 0 < len(grid._memo["balls"]) < len(asked)


def test_a_kept_ball_leaves_every_refusal_in_place():
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    nan = math.nan
    for _ in range(2):
        grid.restrict([0.0, 0.0], 0.5)
        with pytest.raises(ValueError, match="radius must not be NaN"):
            grid.restrict([0.0, 0.0], nan)
        with pytest.raises(BelowResolutionError):
            grid.restrict([0.0, 0.0], 2.0 * grid.resolution)
        for center in ([nan, 0.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="center must be finite"):
                grid.restrict(center, 0.5)
    assert list(grid._memo["balls"]) == [(np.zeros(2).tobytes(), 0.5)]


def test_kept_indices_and_lattices_are_read_only():
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    sub, idx = grid.restrict([0.2, 0.1], 0.5)
    for kept in (idx, grid.lattice(2), sub.lattice(3)):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0


def test_a_grid_and_its_memo_are_freed_by_reference_counting():
    """Memo entries hold no grid, so a grid whose balls hold a lattice, a
    propagation skeleton and a factor is freed, with every restriction, as
    soon as its last reference goes: no collector is needed."""
    gc.collect()
    gc.disable()
    try:
        grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
        x = np.abs(grid.points[:, :1] - 0.1) ** 1.5
        u = SampledQFunction(grid, np.stack([x, -x], axis=1))
        fit = best_fit(u, [0.1, 0.0], 0.6, 2, 2.0)
        sub = u.restrict([0.1, 0.0], 0.6)
        assert {"lattice", ("skeleton", 3), ("fit", np.array([0.1, 0.0]).tobytes(), 2)} \
            <= set(sub.grid._memo)
        refs = [weakref.ref(grid), weakref.ref(sub.grid)]
        del grid, u, sub, x
        assert [ref() for ref in refs] == [None, None]
        assert fit.residual >= 0.0
    finally:
        gc.enable()


def _two_branch(grid):
    p = grid.points
    a = np.linalg.norm(p, axis=1) ** 1.5
    th = 1.5 * np.arctan2(p[:, 1], p[:, 0])
    b = np.stack([a * np.cos(th), a * np.sin(th)], axis=-1)
    return SampledQFunction(grid, np.stack([b, -b], axis=1))


def test_certificate_builds_one_table_per_grid(monkeypatch):
    """Every fit and audit of a certificate gathers its ball's lattice from
    the one table of the sampled grid.  The grid is the benchmark's,
    h = 1/80: at h = 1/40 to 1/72 this certificate has no admissible scale
    pair."""
    built = []
    original = geometry.neighbour_table

    def counting(points, *args):
        built.append(len(points))
        return original(points, *args)

    monkeypatch.setattr(geometry, "neighbour_table", counting)
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    out = certify.end_to_end_certify(
        _two_branch(grid), certify.Stratification(base=[[0.0, 0.0]]), k=1,
        q_exp=2.0, mu_claim=0.5)
    assert out.ok
    assert built == [grid.size]


_GEOMETRY_REFUSALS = {
    "parent-index-length": (
        lambda: QuadratureGrid(np.zeros((2, 2)), np.ones(2), 0.5,
                               parent=Domain.box(2, 1.0).sample(0.5), parent_index=[0]),
        ValueError, "one parent index per node"),
    "domain-center-dimension": (lambda: Domain.ball(2, 1.0, center=[0.0, 0.0, 0.0]),
                                DegenerateDomainError, "bad center"),
    "box-half-width-zero": (lambda: Domain.box(2, 0.0), DegenerateDomainError,
                            "half width <= 0"),
    "box-half-width-negative": (lambda: Domain.box(2, -1.0), DegenerateDomainError,
                                "half width <= 0"),
    "no-interior-cells": (lambda: Domain.annulus(2, 0.9, 1.0).sample(1.0),
                          DegenerateDomainError, "no interior cells"),
}


@pytest.mark.parametrize("case", sorted(_GEOMETRY_REFUSALS))
def test_geometry_refuses_malformed_input(case):
    call, error, match = _GEOMETRY_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
