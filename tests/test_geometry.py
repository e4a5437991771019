"""Tests for domains, quadrature grids, and dyadic ladders."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qvalued import certify, geometry, io, polyfit
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
        disk_grid.restrict(center, 0.5)


def test_restriction_refuses_a_nan_radius(disk_grid):
    with pytest.raises(ValueError, match="radius must not be NaN"):
        disk_grid.restrict([0.0, 0.0], math.nan)


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
        assert np.array_equal(grid.restrict(x, 0.4)[1],
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


def test_array_dataclasses_compare_and_hash_by_identity():
    grid = Domain.ball(2, 1.0).sample(0.25)
    twin = Domain.ball(2, 1.0).sample(0.25)
    assert np.array_equal(grid.points, twin.points)
    assert grid == grid and grid != twin
    poly = QPolynomial(np.zeros(2), 1, np.ones((2, 1, 3)))
    u = SampledQFunction(grid, poly.eval(grid.points))
    assert len({grid, twin, poly, u}) == 4


def _table(grid, depth):
    return neighbour_table(grid.points, grid.resolution, depth)


def _assert_shallow_table_is_a_slice(grid, depth):
    """A table at one depth is the first columns of a deeper one: a step
    j <= depth is found alike, however deep the table."""
    want = _table(grid, 5)[:, :, :depth]
    got = _table(grid, depth)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.shape[1] == len(_lattice_directions(grid.dim))
    assert got.tobytes() == want.tobytes()


def _lattice_by_gather(source, idx, depth):
    """A restriction's lattice as it was once computed, kept as its oracle:
    the rows of its source grid's table at the ball's nodes, mapped to the
    ball's own indices, with -1 kept."""
    inv = np.full(source.size + 1, -1, dtype=geometry._index_dtype(idx.size))
    inv[idx] = np.arange(idx.size)
    return inv[_table(source, depth)[idx]]


def _assert_lattice_is_the_gather(source, ball, idx, depth):
    got, want = _table(ball, depth), _lattice_by_gather(source, idx, depth)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, h", [(1, 1.0 / 64.0), (2, 1.0 / 32.0), (3, 1.0 / 8.0)])
def test_restriction_lattice_gathers_the_parent_table(n, h):
    """A restriction's lattice is read from its own points, and on lattice
    points that table is the gather of its source grid's table, for a ball
    of a ball too; a shallower table is a slice of a deeper one."""
    top = Domain.ball(n, 1.0).sample(h)
    rng = np.random.default_rng(n)
    center = rng.uniform(-0.3, 0.3, n)
    sub, idx = top.restrict(center, 0.6)
    subsub, idx2 = sub.restrict(center + 0.1, 0.35)
    # holds the source's last node, which a -1 in the source table must not reach
    corner, idx3 = top.restrict(top.points[-1], 0.4)
    for depth in (2, 1, 5, 3, 4):
        for grid in (top, sub, subsub, corner):
            _assert_shallow_table_is_a_slice(grid, depth)
        for source, ball, index in ((top, sub, idx), (sub, subsub, idx2),
                                    (top, subsub, idx[idx2]), (top, corner, idx3)):
            _assert_lattice_is_the_gather(source, ball, index, depth)


_DOMAIN_KINDS = {
    "ball": lambda n, c: Domain.ball(n, 1.0, c),
    "half_ball": lambda n, c: Domain.half_ball(n, 1.0, c),
    "annulus": lambda n, c: Domain.annulus(n, 0.3, 1.0, c),
    "box": lambda n, c: Domain.box(n, 0.9, c),
}


@pytest.mark.parametrize("kind", sorted(_DOMAIN_KINDS))
@pytest.mark.parametrize("n, h", [(1, 1.0 / 64.0), (2, 1.0 / 24.0), (3, 1.0 / 8.0)])
def test_a_ball_lattice_equals_the_gather_of_its_source_table(kind, n, h, tmp_path):
    """On random balls, and balls of those, of a domain with a shifted
    center, sampled or read back from CSV, each ball's own table is the
    gather of its source grid's, byte for byte, at depths 1, 3 and 5."""
    rng = np.random.default_rng([n, len(kind)])
    dom = _DOMAIN_KINDS[kind](n, rng.uniform(-0.4, 0.4, n))
    sampled = dom.sample(h)
    path = tmp_path / "samples.csv"
    io.write_samples_csv(path, SampledQFunction(sampled, sampled.points[:, None, :1]))
    checked = 0
    for grid in (sampled, io.read_samples_csv(path, None).grid):
        for _ in range(8):
            center = dom.center + rng.uniform(-1.0, 1.0, n)
            try:
                sub, idx = grid.restrict(center, rng.uniform(2.5 * h, 1.0))
                inner, inner_idx = sub.restrict(center + rng.uniform(-0.2, 0.2, n),
                                                rng.uniform(2.5 * h, 0.6))
            except EmptyIntersectionError:
                continue
            for depth in (1, 3, 5):
                _assert_lattice_is_the_gather(grid, sub, idx, depth)
                _assert_lattice_is_the_gather(sub, inner, inner_idx, depth)
                _assert_lattice_is_the_gather(grid, inner, idx[inner_idx], depth)
            checked += 1
    assert checked >= 4


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
        table = _table(grid, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table.nbytes


def test_lattice_of_a_grid_read_back_from_csv(tmp_path):
    """A grid read back from CSV has the sampled grid's lattice, and its
    balls, and theirs, slice shallower tables from deeper ones."""
    grid = Domain.annulus(2, 0.3, 1.0).sample(1.0 / 24.0)
    path = tmp_path / "annulus.csv"
    io.write_samples_csv(path, SampledQFunction(grid, grid.points[:, None, :1]))
    back = io.read_samples_csv(path, None).grid
    sub, _ = back.restrict([0.5, -0.2], 0.45)
    for depth in range(1, 6):
        assert _table(back, depth).tobytes() == _table(grid, depth).tobytes()
        for g in (back, sub, sub.restrict([0.6, -0.1], 0.2)[0]):
            _assert_shallow_table_is_a_slice(g, depth)


# ---------------------------------------------------------------------------
# the ball memo


def _kept_nodes(grid):
    return sum(ball[0].size for ball in grid._memo.get("balls", {}).values())


def _sub_grid_bytes(sub):
    return [a.tobytes() for a in (sub.points, sub.weights)]


def test_restrictions_of_one_ball_share_its_memo():
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    a, idx_a = grid.restrict([0.1, -0.2], 0.4)
    b, idx_b = grid.restrict(np.array([[0.1, -0.2]]), np.float64(0.4))
    assert a is not b and idx_a is idx_b and a._memo is b._memo
    skeleton = polyfit._lattice_skeleton(a, 2)
    assert b._memo[("skeleton", 2)] is skeleton
    assert polyfit._lattice_skeleton(b, 2) is skeleton
    # another ball, or the same one restricted from the restriction, has its own
    c, _ = grid.restrict([0.1, -0.2], 0.41)
    d, _ = a.restrict([0.1, -0.2], 0.4)
    assert c._memo is not a._memo and d._memo is not a._memo
    assert np.array_equal(d.points, a.points)


def test_kept_ball_nodes_never_exceed_twice_the_grid_size():
    """A grid keeps balls while their node counts sum to at most twice its
    size; a ball past that budget is computed, dropped, and restricted as a
    kept one is."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    twin = QuadratureGrid(grid.points, grid.weights, grid.resolution)
    rng = np.random.default_rng(5)
    asked = []
    for _ in range(40):
        center, radius = rng.uniform(-0.8, 0.8, 2), rng.uniform(0.1, 1.2)
        sub, idx = grid.restrict(center, radius)
        asked.append((center, radius))
        assert np.array_equal(idx, twin.restrict(center, radius)[1])
        inner, inner_idx = sub.restrict(center, max(0.5 * radius, 0.07))
        assert np.array_equal(inner.points, sub.points[inner_idx])
        assert _kept_nodes(grid) <= 2 * grid.size and _kept_nodes(sub) <= 2 * sub.size
    balls = grid._memo["balls"]
    assert 0 < len(balls) < len(asked)
    assert _kept_nodes(grid) > grid.size
    for center, radius in asked:
        kept = (center.tobytes(), radius) in balls
        sub, idx = grid.restrict(center, radius)
        fresh, fresh_idx = QuadratureGrid(
            grid.points, grid.weights, grid.resolution).restrict(center, radius)
        assert idx.tobytes() == fresh_idx.tobytes()
        assert _sub_grid_bytes(sub) == _sub_grid_bytes(fresh)
        # a dropped ball is computed again, and dropped again
        assert ((center.tobytes(), radius) in balls) == kept


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
    """A ball's indices and the propagation skeletons, a grid's one kept
    form of its lattice, are read-only; no memo keeps a neighbour table."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    sub, idx = grid.restrict([0.2, 0.1], 0.5)
    grid_skeleton = polyfit._lattice_skeleton(grid, 2)
    sub_skeleton = polyfit._lattice_skeleton(sub, 3)
    assert grid._memo[("skeleton", 2)] is grid_skeleton
    assert sub._memo[("skeleton", 3)] is sub_skeleton
    assert not hasattr(grid, "lattice")
    assert "lattice" not in grid._memo and "lattice" not in sub._memo
    for kept in (idx,) + grid_skeleton + sub_skeleton:
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0


def test_a_grid_and_its_memo_are_freed_by_reference_counting():
    """Memo entries hold no grid, so a grid whose balls hold a propagation
    skeleton and a factor is freed, with every restriction, as soon as its
    last reference goes: no collector is needed."""
    gc.collect()
    gc.disable()
    try:
        grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
        x = np.abs(grid.points[:, :1] - 0.1) ** 1.5
        u = SampledQFunction(grid, np.stack([x, -x], axis=1))
        fit = best_fit(u, [0.1, 0.0], 0.6, 2, 2.0)
        sub = u.restrict([0.1, 0.0], 0.6)
        assert {("skeleton", 3), ("fit", np.array([0.1, 0.0]).tobytes(), 2)} \
            <= set(sub.grid._memo)
        assert "lattice" not in sub.grid._memo
        refs = [weakref.ref(grid), weakref.ref(sub.grid)]
        del grid, u, sub, x
        assert [ref() for ref in refs] == [None, None]
        assert fit.residual >= 0.0
    finally:
        gc.enable()


def test_a_restriction_does_not_keep_its_source_grid_alive():
    """A restricted field, and a fit on it, outlive the grid it was cut
    from: no collector is needed to free that grid."""
    gc.collect()
    gc.disable()
    try:
        grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
        sub = _single_valued(grid).restrict([0.1, 0.0], 0.6)
        inner = sub.restrict([0.1, 0.1], 0.3)
        ref = weakref.ref(grid)
        del grid
        assert ref() is None
        for v in (sub, inner):
            assert _table(v.grid, 2).shape == (v.size, 8, 2)
            assert best_fit(v, [0.1, 0.0], 0.3, 1, 2.0).residual >= 0.0
    finally:
        gc.enable()


def _two_branch(grid):
    p = grid.points
    a = np.linalg.norm(p, axis=1) ** 1.5
    th = 1.5 * np.arctan2(p[:, 1], p[:, 0])
    b = np.stack([a * np.cos(th), a * np.sin(th)], axis=-1)
    return SampledQFunction(grid, np.stack([b, -b], axis=1))


def _single_valued(grid):
    r = np.linalg.norm(grid.points, axis=1)
    return SampledQFunction(grid, (r ** 1.5)[:, None, None])


def _certify(u):
    return certify.end_to_end_certify(
        u, certify.Stratification(base=[[0.0, 0.0]]), k=1, q_exp=2.0, mu_claim=0.5)


def _counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


def test_a_repeated_certificate_computes_no_ball_geometry(monkeypatch):
    """A certificate's whole working set of balls stays on its grid: a
    second certificate of the same field scans for no ball and builds no
    lattice, design or factor, and a certificate on a fresh copy of the
    grid, which builds them all again, is equal to both.  The two-branch
    field's fits read ball lattices; the grid is the benchmark's, h = 1/80."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    first = _certify(_two_branch(grid))
    counts = {"scan": 0, "lattice": 0, "factor": 0, "design": 0}
    monkeypatch.setattr(geometry, "squared_distances",
                        _counting(counts, "scan", geometry.squared_distances))
    monkeypatch.setattr(polyfit, "neighbour_table",
                        _counting(counts, "lattice", polyfit.neighbour_table))
    monkeypatch.setattr(polyfit, "_factor", _counting(counts, "factor", polyfit._factor))
    monkeypatch.setattr(polyfit, "design_matrix",
                        _counting(counts, "design", polyfit.design_matrix))
    again = _certify(_two_branch(grid))
    assert counts == {"scan": 0, "lattice": 0, "factor": 0, "design": 0}
    fresh = _certify(_two_branch(
        QuadratureGrid(grid.points, grid.weights, grid.resolution)))
    assert min(counts.values()) > 0
    assert again == first and fresh == first


@pytest.fixture(scope="module")
def certified_grid():
    """The h = 1/80 disk after one two-branch certificate."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    assert _certify(_two_branch(grid)).ok
    return grid


def _memo_items(memo):
    """Every key and value of a memo, nested dicts and tuples walked."""
    for item in memo.items() if isinstance(memo, dict) else memo:
        if isinstance(item, (dict, tuple)):
            yield from _memo_items(item)
        else:
            yield item


def test_a_certificate_leaves_only_read_only_arrays_in_the_memo(certified_grid):
    kept = list(_memo_items(certified_grid._memo))
    assert not [x for x in kept if isinstance(x, (QuadratureGrid, SampledQFunction,
                                                  QPolynomial))]
    assert {type(x) for x in kept} <= {np.ndarray, bytes, str, int, float}
    arrays = [x for x in kept if isinstance(x, np.ndarray)]
    assert not [a for a in arrays if a.flags.writeable]
    # each ball keeps its indices, points, weights and designs
    balls = certified_grid._memo["balls"]
    assert all(len(ball) == 4 for ball in balls.values())
    assert all(any(key[0] == "design" for key in ball[3]) for ball in balls.values())


def test_a_memo_hit_restriction_equals_one_on_a_fresh_grid(certified_grid):
    grid = certified_grid
    for center, radius in grid._memo["balls"]:
        center = np.frombuffer(center)
        sub, idx = grid.restrict(center, radius)
        fresh, fresh_idx = QuadratureGrid(
            grid.points, grid.weights, grid.resolution).restrict(center, radius)
        assert idx.tobytes() == fresh_idx.tobytes()
        assert _sub_grid_bytes(sub) == _sub_grid_bytes(fresh)
        assert sub.resolution == fresh.resolution


_GEOMETRY_REFUSALS = {
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
