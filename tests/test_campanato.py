import math

import numpy as np
import pytest

from qvalued.campanato import (
    campanato_seminorm,
    decay_exponent,
    excess_profile,
    holder_from_campanato,
    infer_band,
)
from qvalued.errors import (
    BelowResolutionError,
    EmptyIntersectionError,
    ExponentBandError,
)
from qvalued.geometry import Domain, dyadic_ladder
from qvalued.points import SampledQFunction

# Closed-form local excesses over a centered disk of radius rho:
#   inf_c int (|x| - c)^2      = (pi/18)  rho^4   (best c = 2 rho / 3)
#   inf_affine int (|x|^1.5 - P)^2 = (18 pi/245) rho^5  (best P = 4 rho^1.5 / 7)
# Both follow from one-dimensional radial moments; the affine part of the
# second fit vanishes by symmetry.

RES = 1.0 / 256.0


@pytest.fixture(scope="module")
def disk_grid():
    return Domain.ball(2, 1.0).sample(RES)


@pytest.fixture(scope="module")
def u_abs(disk_grid):
    return SampledQFunction.from_function(
        disk_grid, lambda p: np.linalg.norm(p, axis=1)[:, None, None], q=1, m=1
    )


@pytest.fixture(scope="module")
def u_abs15(disk_grid):
    return SampledQFunction.from_function(
        disk_grid,
        lambda p: (np.linalg.norm(p, axis=1) ** 1.5)[:, None, None],
        q=1,
        m=1,
    )


@pytest.fixture(scope="module")
def u_sin(disk_grid):
    return SampledQFunction.from_function(
        disk_grid, lambda p: np.sin(p[:, 0])[:, None, None], q=1, m=1
    )


def test_decay_exponent_in_three_dimensions():
    """u = +-Re (x1 + i x2)^(3/2) on the unit ball of R^3 is homogeneous of
    degree 3/2 about the x3 axis and no affine tuple fits it better at any
    scale, so E(0, rho) scales as rho^(n + 2 * 3/2) and lambda = 6.  The
    fits propagate labels over a 3-D lattice.

    At h = 1/24 this ladder reads 6.21, and at h = 1/32 6.04: the reading
    falls towards 6 from above as h shrinks, so its offset is
    discretisation, mostly of the bottom rung (rho = 0.1 is 2.4 cells).
    The upper tolerance, 0.3, is the coarse run's measured 0.21 with a
    margin of 0.09; the lower one, 0.1, is a little over twice the finer
    run's 0.04, since readings approach 6 from above.  Both keep the
    reading inside lambda's band (5, 7) and the Holder exponent within
    0.15 of 1/2."""
    grid = Domain.ball(3, 1.0).sample(1.0 / 24.0)
    assert grid.size == 57_856
    p = grid.points
    re = np.hypot(p[:, 0], p[:, 1]) ** 1.5 * np.cos(1.5 * np.arctan2(p[:, 1], p[:, 0]))
    u = SampledQFunction(grid, np.stack([re, -re], axis=1)[:, :, None])
    fit = decay_exponent(u, np.zeros(3), 1, 2.0, [0.8, 0.4, 0.2, 0.1])
    assert not fit.exact and fit.r_squared > 0.99
    assert 6.0 - 0.1 <= fit.lambda_hat <= 6.0 + 0.3
    assert fit.holder_alpha(3, 2.0) == pytest.approx(0.5, abs=0.15)


def test_excess_oracle_abs_k0(u_abs):
    prof = excess_profile(u_abs, (0.0, 0.0), 0, 2.0, [0.5])
    oracle = math.pi / 18.0 * 0.5 ** 4
    assert prof.excesses[0] == pytest.approx(oracle, rel=2e-3)


def test_excess_oracle_abs15_k1(u_abs15):
    prof = excess_profile(u_abs15, (0.0, 0.0), 1, 2.0, [0.5])
    oracle = 18.0 * math.pi / 245.0 * 0.5 ** 5
    assert prof.excesses[0] == pytest.approx(oracle, rel=2e-3)


def test_decay_slope_abs(u_abs):
    fit = decay_exponent(u_abs, (0.0, 0.0), 0, 2.0, dyadic_ladder(0.5, 4))
    assert not fit.exact
    assert fit.lambda_hat == pytest.approx(4.0, abs=0.15)
    assert fit.r_squared > 0.999


def test_decay_slope_abs15_and_alpha(u_abs15):
    fit = decay_exponent(u_abs15, (0.0, 0.0), 1, 2.0, dyadic_ladder(0.5, 4))
    assert fit.lambda_hat == pytest.approx(5.0, abs=0.2)
    assert fit.holder_alpha(2, 2.0) == pytest.approx(0.5, abs=0.1)


def test_exact_polynomial_sentinel(disk_grid):
    u = SampledQFunction.from_function(
        disk_grid,
        lambda p: (1.0 + 2.0 * p[:, 0] - p[:, 1])[:, None, None],
        q=1,
        m=1,
    )
    fit = decay_exponent(u, (0.0, 0.0), 1, 2.0, dyadic_ladder(0.5, 3),
                         min_rungs=4)
    assert fit.exact
    assert math.isinf(fit.lambda_hat)


@pytest.fixture(scope="module")
def coarse_disk():
    return Domain.ball(2, 1.0).sample(1.0 / 128.0)


@pytest.mark.parametrize("q_exp", [1.0, 1.5, 2.0, 3.0])
def test_exact_linear_data_is_exact_at_every_exponent(coarse_disk, q_exp):
    x = coarse_disk.points
    u = SampledQFunction(coarse_disk, (1.0 + x[:, 0] - 0.5 * x[:, 1])[:, None, None])
    fit = decay_exponent(u, (0.0, 0.0), 1, q_exp, dyadic_ladder(0.5, 5))
    assert fit.exact and math.isinf(fit.lambda_hat)
    assert np.all(fit.excesses <= fit.floor)


@pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6])
def test_small_quadratic_excesses_are_not_rounding(coarse_disk, delta):
    # E(rho) of 1 + x + delta x^2 is delta^2 c rho^6, far above rounding of
    # the q = 2 objective even at delta = 1e-6 (excesses 3e-15 ... 2e-22);
    # a floor linear in eps dropped them: an exact sentinel at 1e-6, too
    # few usable rungs at 1e-5 and 1e-4
    x = coarse_disk.points[:, 0]
    u = SampledQFunction(coarse_disk, (1.0 + x + delta * x * x)[:, None, None])
    fit = decay_exponent(u, (0.0, 0.0), 1, 2.0, dyadic_ladder(0.5, 5))
    assert not fit.exact
    assert fit.lambda_hat == pytest.approx(5.966, abs=0.01)
    assert np.all(fit.excesses > fit.floor)


def test_too_few_usable_rungs(u_abs):
    with pytest.raises(BelowResolutionError):
        decay_exponent(u_abs, (0.0, 0.0), 0, 2.0, [0.5, 0.25], min_rungs=4)


@pytest.mark.parametrize("min_rungs", [1, 0, -3])
def test_fewer_than_two_rungs_refused_before_any_fit(monkeypatch, min_rungs):
    # one rung has no slope; with min_rungs = 1 a one-rung ladder on r^1.5
    # was fitted to lambda = 3.54 with r^2 = nan
    import qvalued.campanato as campanato

    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    r = np.linalg.norm(grid.points, axis=1)
    u = SampledQFunction(grid, (r ** 1.5)[:, None, None])
    calls = []
    original = campanato.best_fit

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(campanato, "best_fit", counting)
    with pytest.raises(ValueError, match="min_rungs"):
        decay_exponent(u, (0.0, 0.0), 1, 2.0, [0.5], min_rungs=min_rungs)
    assert calls == []


@pytest.mark.parametrize("ladder", [None, [], np.array(0.5)])
def test_missing_or_empty_ladder_refused(u_abs, ladder):
    with pytest.raises(ValueError, match="ladder"):
        excess_profile(u_abs, (0.0, 0.0), 0, 2.0, ladder)
    with pytest.raises(ValueError, match="ladder"):
        decay_exponent(u_abs, (0.0, 0.0), 0, 2.0, ladder)


@pytest.mark.parametrize("ladder", [
    [0.5, -0.25], [0.5, 0.0], [0.5, math.nan], [math.inf],
])
def test_non_finite_or_non_positive_radius_refused(u_abs, ladder):
    with pytest.raises(ValueError, match="finite and positive"):
        excess_profile(u_abs, (0.0, 0.0), 0, 2.0, ladder)


@pytest.mark.parametrize("x0", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_center_refused(u_abs, x0):
    # it used to be read as a ladder entirely below resolution
    with pytest.raises(ValueError, match="center must be finite"):
        excess_profile(u_abs, x0, 0, 2.0, [0.5, 0.25])


def test_center_off_the_domain_is_an_empty_intersection():
    # every resolvable ball about (5, 5) is empty; it used to be read as a
    # ladder entirely below resolution
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    u = SampledQFunction(grid, (np.linalg.norm(grid.points, axis=1) ** 1.5)[:, None, None])
    with pytest.raises(EmptyIntersectionError, match=r"\[5\.0, 5\.0\]"):
        excess_profile(u, [5.0, 5.0], 1, 2.0, [0.5, 0.25])
    # one rung below resolution and the rest empty is still empty
    with pytest.raises(EmptyIntersectionError):
        excess_profile(u, [5.0, 5.0], 1, 2.0, [0.5, 1.0 / 16.0])
    with pytest.raises(BelowResolutionError, match="entirely below"):
        excess_profile(u, [0.0, 0.0], 1, 2.0, [1.0 / 16.0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_seminorm_refuses_non_finite_lambda(u_abs15, lam):
    with pytest.raises(ValueError, match="lambda"):
        campanato_seminorm(u_abs15, 1, 2.0, lam, [(0.0, 0.0)], [0.5, 0.25])


def test_excess_monotone_in_degree(u_abs15):
    es = []
    for k in (0, 1, 2, 3):
        prof = excess_profile(u_abs15, (0.0, 0.0), k, 2.0, [0.5])
        es.append(prof.excesses[0])
    assert all(b <= a * (1 + 1e-12) for a, b in zip(es, es[1:]))


def test_duplicated_branch_doubles_excess(disk_grid):
    one = SampledQFunction.from_function(
        disk_grid, lambda p: np.linalg.norm(p, axis=1)[:, None, None], q=1, m=1
    )
    two = SampledQFunction.from_function(
        disk_grid,
        lambda p: np.repeat(np.linalg.norm(p, axis=1)[:, None, None], 2, axis=1),
        q=2,
        m=1,
    )
    e1 = excess_profile(one, (0.0, 0.0), 0, 2.0, [0.5]).excesses[0]
    e2 = excess_profile(two, (0.0, 0.0), 0, 2.0, [0.5]).excesses[0]
    assert e2 == pytest.approx(2.0 * e1, rel=1e-9)


def test_seminorm_resolution_stability(u_abs15):
    ladder = dyadic_ladder(0.5, 3)
    centers = [(0.0, 0.0)]
    coarse_grid = Domain.ball(2, 1.0).sample(1.0 / 128.0)
    coarse = SampledQFunction.from_function(
        coarse_grid,
        lambda p: (np.linalg.norm(p, axis=1) ** 1.5)[:, None, None],
        q=1,
        m=1,
    )
    s_coarse = campanato_seminorm(coarse, 1, 2.0, 5.0, centers, ladder).value
    s_fine = campanato_seminorm(u_abs15, 1, 2.0, 5.0, centers, ladder).value
    assert abs(s_fine - s_coarse) <= 0.1 * s_fine


def test_seminorm_report_worst_rung(u_abs15):
    rep = campanato_seminorm(u_abs15, 1, 2.0, 5.0, [(0.0, 0.0)],
                             dyadic_ladder(0.5, 3))
    # excess = const * rho^5 exactly, so every rung scales identically and
    # quadrature noise decides; the worst rung must be one of the ladder's.
    assert rep.worst_radius in set(dyadic_ladder(0.5, 3))


def test_band_gates():
    assert infer_band(5.0, 2, 2.0) == 1
    assert holder_from_campanato(5.0, 2, 1, 2.0) == pytest.approx(0.5)
    with pytest.raises(ExponentBandError):
        holder_from_campanato(4.0, 2, 1, 2.0)  # boundary of the band
    with pytest.raises(ExponentBandError):
        holder_from_campanato(5.0, 2, 0, 2.0)  # wrong shelf
    with pytest.raises(ExponentBandError):
        infer_band(2.0, 2, 2.0)
    with pytest.raises(ExponentBandError):
        infer_band(6.0, 2, 2.0)  # exact shelf edge


def test_dyadic_constant_value():
    # q = 2, lambda = 5 pins the per-rung constant at 4.125.
    out_c = 2.0 ** 2 + 2.0 ** (2.0 - 5.0)
    assert out_c == 4.125

