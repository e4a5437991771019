import contextlib
import dataclasses
import math
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import campanato, certify, polyfit
from qvalued.certify import (
    DecayHypothesis,
    Stratification,
    audit_hypothesis,
    certified_exponent,
    end_to_end_certify,
    gamma_select,
)
from qvalued.errors import BelowResolutionError, WeakConstantsError
from qvalued.geometry import Domain
from qvalued.points import SampledQFunction
from qvalued.polyfit import QPolynomial, multi_indices


def golden_hypothesis(**kw):
    base = dict(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0, beta2=1.0)
    base.update(kw)
    return DecayHypothesis(**base)


def reference_chain(n, k, q_exp, beta1, mu):
    """Test-local re-derivation of the certificate arithmetic."""
    lead = 4.0 ** (n + k * q_exp) * beta1
    for t in range(3, 65):
        g = 2.0 ** (-t)
        if lead * (2.0 * g / (1.0 - g)) ** (q_exp * mu) < 0.25:
            lam = 2.0 / t
            mu_prime = min(mu, lam / q_exp)
            mu_tilde = min(lam, mu_prime)
            return g, lam, mu_prime, mu_tilde, n + q_exp * (k + mu_tilde)
    return None


@pytest.mark.parametrize("n, h", [(1, 1.0 / 256.0), (2, 1.0 / 80.0), (3, 1.0 / 16.0)])
def test_set_distances_are_the_bytes_of_the_norm_minimum(n, h):
    grid = Domain.ball(n, 1.0).sample(h).points
    rng = np.random.default_rng(n)
    few = rng.uniform(-0.5, 0.5, (5, n))

    def norm_minimum(points, targets):
        points = np.atleast_2d(points)
        return np.linalg.norm(points[:, None] - targets[None], axis=2).min(axis=1)

    # few points against few, one point against the whole grid, the grid
    # against one point and against a few
    for points, targets in ((few, few[::-1] + 0.1), (grid[7], grid),
                            (few[0], grid), (grid, few[:1]), (grid, few)):
        got = certify._set_distances(points, targets)
        assert got.tobytes() == norm_minimum(points, targets).tobytes()
    for points in (few, grid):
        got = certify._set_distances(points, np.empty((0, n)))
        assert got.shape == (points.shape[0],) and np.all(got == np.inf)


def test_gamma_golden():
    assert gamma_select(2, 1, 2.0, 1.0, 0.5) == 2.0 ** -12
    # direct check of the selection inequality at the returned value
    assert 256.0 * (2.0 * 2.0 ** -12 / (1 - 2.0 ** -12)) < 0.25
    assert not 256.0 * (2.0 * 2.0 ** -11 / (1 - 2.0 ** -11)) < 0.25


def test_gamma_cap_and_weakness():
    assert gamma_select(2, 1, 2.0, 1e-300, 0.5) == 2.0 ** -3
    with pytest.raises(WeakConstantsError):
        gamma_select(2, 1, 2.0, 1e40, 0.01)


def test_certificate_golden_chain():
    c = certified_exponent(golden_hypothesis())
    assert c.gamma == 2.0 ** -12
    assert abs(c.lam - 1.0 / 6.0) <= 1e-15
    assert abs(c.mu_prime - 1.0 / 12.0) <= 1e-15
    assert abs(c.mu_tilde - 1.0 / 12.0) <= 1e-15
    assert abs(c.lambda_tilde - 25.0 / 6.0) <= 1e-15


def test_certificate_constant_factors():
    c = certified_exponent(golden_hypothesis(beta2=3.0))
    names = [n for n, _ in c.factors]
    assert names == ["scale_comparison", "recentering", "geometric_sum",
                     "off_set_transfer"]
    hand = 4.0 ** 4 * 2.0 ** (4.0 + 2.0 * (1.0 / 12.0)) * (4.0 / 3.0) * 3.0
    assert c.constant == pytest.approx(hand, rel=1e-14)
    assert c.constant == pytest.approx(
        math.prod(v for _, v in c.factors), rel=0)


def test_chain_formula_exactness_pinned_tuples():
    cases = [
        (2, 1, 2.0, 1.0, 0.5), (2, 0, 2.0, 1.0, 0.5), (3, 1, 2.0, 1.0, 0.5),
        (2, 1, 2.0, 0.5, 0.5), (2, 1, 2.0, 2.0, 0.5), (2, 1, 2.0, 1.0, 0.9),
        (2, 1, 2.0, 1.0, 0.1), (2, 2, 2.0, 1.0, 0.5), (1, 0, 1.0, 1.0, 0.5),
        (1, 1, 1.0, 1.0, 0.3), (4, 0, 2.0, 1.0, 0.7), (2, 1, 3.0, 1.0, 0.5),
        (3, 2, 2.0, 4.0, 0.25), (2, 0, 1.5, 1.0, 0.5), (5, 0, 2.0, 1.0, 0.5),
        (2, 1, 2.0, 1e-3, 0.5), (2, 1, 2.0, 1e3, 0.5), (3, 0, 2.0, 10.0, 0.8),
        (2, 3, 2.0, 1.0, 0.5), (1, 2, 2.0, 0.1, 0.6),
    ]
    assert len(cases) == 20
    for n, k, q, b1, mu in cases:
        ref = reference_chain(n, k, q, b1, mu)
        h = DecayHypothesis(n=n, k=k, q_exp=q, mu=mu, beta1=b1, beta2=1.0)
        c = certified_exponent(h)
        for got, want in zip(
            (c.gamma, c.lam, c.mu_prime, c.mu_tilde, c.lambda_tilde), ref
        ):
            assert abs(got - want) <= 1e-15


def test_exponent_band_invariant():
    for n in (1, 2, 3):
        for k in (0, 1, 2):
            for q in (1.0, 2.0):
                for b1 in (0.1, 1.0, 100.0):
                    for mu in (0.1, 0.5, 0.9):
                        try:
                            c = certified_exponent(DecayHypothesis(
                                n=n, k=k, q_exp=q, mu=mu, beta1=b1,
                                beta2=1.0))
                        except WeakConstantsError:
                            continue
                        assert c.gamma < 0.25
                        assert 0.0 < c.mu_tilde < 1.0
                        assert n + k * q < c.lambda_tilde < n + (k + 1) * q


def test_monotonicity_in_constants_and_modulus():
    mus = [0.1, 0.3, 0.5, 0.7, 0.9]
    betas = [0.01, 0.1, 1.0, 10.0, 1e4]

    def exponent(b, mu):
        # a hypothesis too weak to certify counts as exponent zero
        try:
            return certified_exponent(DecayHypothesis(
                n=2, k=1, q_exp=2.0, mu=mu, beta1=b)).mu_tilde
        except WeakConstantsError:
            return 0.0

    for mu in mus:
        vals = [exponent(b, mu) for b in betas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for b in betas:
        vals = [exponent(b, mu) for mu in mus]
        assert all(a <= b_ for a, b_ in zip(vals, vals[1:]))


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        DecayHypothesis(n=2, k=1, q_exp=2.0, mu=1.5)
    with pytest.raises(ValueError):
        DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, eps=0.3)
    with pytest.raises(ValueError):
        DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta1=-1.0)
    with pytest.raises(ValueError):
        DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, betas=(1.0,),
                        beta_tildes=())


@pytest.mark.parametrize("kw", [
    {"q_exp": math.nan}, {"q_exp": math.inf}, {"mu": math.nan},
    {"eps": math.nan}, {"beta0": math.nan},
    {"beta1": math.inf}, {"beta2": math.nan}, {"beta2": math.inf},
    {"betas": (math.nan,), "beta_tildes": (1.0,)},
    {"betas": (1.0,), "beta_tildes": (math.inf,)},
    {"n": 0}, {"k": -3},
], ids=lambda kw: ",".join("%s=%s" % item for item in kw.items()))
def test_hypothesis_refuses_malformed_constants(kw):
    base = dict(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0, beta2=1.0)
    base.update(kw)
    with pytest.raises(ValueError):
        DecayHypothesis(**base)


def test_stratified_matches_unstratified_exponent():
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                        betas=(1.0,), beta_tildes=(1.0,))
    cs = certified_exponent(h)
    cu = certified_exponent(golden_hypothesis())
    assert cs.mu_tilde <= cu.mu_tilde
    assert cs.lambda_tilde == cu.lambda_tilde
    assert cs.constant >= cu.constant


def test_stratified_symmetric_pair_equals_single():
    h1 = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                         betas=(1.0,), beta_tildes=(1.0,))
    h2 = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                         betas=(1.0, 1.0), beta_tildes=(1.0, 1.0))
    c1 = certified_exponent(h1)
    c2 = certified_exponent(h2)
    assert c2.mu_tilde == c1.mu_tilde
    assert c2.lambda_tilde == c1.lambda_tilde


def test_stratified_golden_constant():
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                        betas=(1.0,), beta_tildes=(1.0,))
    c = certified_exponent(h)
    assert c.gamma == 2.0 ** -12
    assert abs(c.lambda_tilde - 25.0 / 6.0) <= 1e-15
    # scale comparison * recentering * geometric sum * offset window of
    # four hidden dyadic steps at gamma = 2^-12
    assert c.constant == pytest.approx(9.850754218203666e63, rel=1e-12)
    assert dict(c.factors)["offset_window"] == pytest.approx(
        2.0 ** 200, rel=1e-12)


def test_stratified_guards():
    bad = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                          betas=(1e40,), beta_tildes=(1.0,))
    with pytest.raises(WeakConstantsError, match="stratum 1"):
        certified_exponent(bad)
    with pytest.raises(ValueError):
        Stratification(base=[[0.0, 0.0]], strata=([[0.0, 0.0]],))


def test_stratum_on_the_base_set_is_refused_where_built():
    # it used to be built, and part II of its audit then raised
    # BelowResolutionError ("no rung supports a comparison fit"), a numeric
    # failure (CLI exit 3) for what is an input error
    sep = certify.MIN_SEPARATION
    with pytest.raises(ValueError, match="stratum 2 touches the base bad set"):
        Stratification(base=[[0.0, 0.0], [0.5, 0.0]],
                       strata=([[0.3, 0.3]], [[0.5 + 0.5 * sep, 0.0]]))
    assert Stratification(base=[[0.0, 0.0]], strata=([[2.0 * sep, 0.0]],)).n_strata == 1


def test_three_part_hypothesis_without_a_stratum_is_refused_where_built():
    # it used to be built, and audited part I without error, but no
    # certificate could be drawn from it
    with pytest.raises(ValueError, match="need at least one stratum"):
        DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0)


def test_certificate_as_dict_keys():
    c = certified_exponent(golden_hypothesis())
    d = c.as_dict()
    assert set(d) == {"gamma", "lambda", "mu_prime", "mu_tilde",
                      "lambda_tilde", "C", "factors"}


def branch_pair_values(pts):
    r = np.linalg.norm(pts, axis=1)
    th = np.arctan2(pts[:, 1], pts[:, 0])
    a = r ** 1.5
    c, s = np.cos(1.5 * th), np.sin(1.5 * th)
    branch = np.stack([a * c, a * s], axis=-1)
    return np.stack([branch, -branch], axis=1)


@pytest.fixture(scope="module")
def branch_sample():
    grid = Domain.ball(2, 1.0).sample(1.0 / 128.0)
    return SampledQFunction.from_function(grid, branch_pair_values, q=2, m=2)


def test_audit_branch_point_with_limit_polynomial(branch_sample, monkeypatch):
    # Around the two-valued branch point the fine/coarse mass ratio matches
    # the claimed modulus exactly (the data is homogeneous), so the premise
    # holds with a constant only a tolerance above one.
    s = Stratification(base=[[0.0, 0.0]])
    K = len(multi_indices(2, 1))
    zero = QPolynomial(np.zeros(2), 1, np.zeros((2, 2, K)))
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, eps=0.2, beta1=1.05)
    monkeypatch.setattr(certify, "_limit_fit", lambda *args: zero)
    rep = audit_hypothesis(branch_sample, h, s, "I")
    assert rep.clean
    assert rep.worst_ratio == pytest.approx(1.0, abs=0.05)


def test_part_three_does_not_depend_on_part_two_fits():
    # part II fits the stratum point at its eps-capped radius; part III
    # must use that radius too, so sharing the fit memo changes nothing
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    u = SampledQFunction(grid, branch_pair_values(grid.points))
    s = Stratification(base=[[0.0, 0.0]], strata=([[0.5, 0.0]],),
                       free_points=[[-0.5, 0.3], [0.1, -0.6]])
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0, betas=(1.0,),
                        beta_tildes=(1.0,))
    alone = audit_hypothesis(u, h, s, "III")
    with polyfit._shared_fits():
        audit_hypothesis(u, h, s, "II")
        assert audit_hypothesis(u, h, s, "III") == alone


@settings(max_examples=200, deadline=None)
@given(rho_top=st.floats(1e-4, 1.0), resolution=st.floats(1e-4, 0.1))
def test_audit_ladder_is_repeated_halving(rho_top, resolution):
    # reference: halve from the top while the radius stays resolvable
    floor = max(certify.MIN_NODES_RADIUS * resolution, 1e-12)
    want = []
    rho = rho_top
    while rho >= floor:
        want.append(rho)
        rho *= 0.5
    u = SimpleNamespace(grid=SimpleNamespace(resolution=resolution))
    got = certify._audit_ladder(u, rho_top)
    assert got == want
    assert all(type(r) is float for r in got)


def test_end_to_end_certifies_branch_pair(branch_sample):
    s = Stratification(base=[[0.0, 0.0]])
    out = end_to_end_certify(branch_sample, s, k=1, q_exp=2.0, mu_claim=0.5)
    assert out.ok
    assert out.certificate.lambda_tilde == pytest.approx(25.0 / 6.0)
    assert out.soundness["fraction"] >= 0.95
    assert out.certificate.audit["checked"] > 0


def test_end_to_end_refuses_broken_decay():
    grid = Domain.ball(2, 1.0).sample(1.0 / 256.0)
    u = SampledQFunction.from_function(
        grid, lambda p: (np.linalg.norm(p, axis=1) ** 0.1)[:, None, None],
        q=1, m=1)
    s = Stratification(base=[[0.0, 0.0]])
    out = end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.9)
    assert out.refused
    assert out.certificate is None
    assert any(not a.clean for a in out.audits)


def test_end_to_end_clean_on_exact_polynomial():
    grid = Domain.ball(2, 1.0).sample(1.0 / 128.0)
    u = SampledQFunction.from_function(
        grid, lambda p: (1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1])[:, None, None],
        q=1, m=1)
    s = Stratification(base=[[0.0, 0.0]])
    out = end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.5)
    assert out.ok
    assert all(a.clean for a in out.audits)
    assert out.soundness["fraction"] == 1.0


def test_audit_judges_a_small_fine_side_above_the_rounding_floor():
    """u = 1 + x + 1e-6 x^2 is not a degree-1 polynomial: at q = 3 the fine
    side of its one scale pair is about 8e-23, far above the rounding floor
    (100 eps)^3 times its data mass, so the pair is judged, not skipped as
    exact."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 128.0)
    u = SampledQFunction.from_function(
        grid, lambda p: (1.0 + p[:, 0] + 1e-6 * p[:, 0] ** 2)[:, None, None],
        q=1, m=1)
    h = DecayHypothesis(n=2, k=1, q_exp=3.0, mu=0.5, eps=0.2, beta1=1.0)
    rep = audit_hypothesis(u, h, Stratification(base=[[0.0, 0.0]]), "I")
    (pair,) = rep.pairs
    assert pair.fine > 0.0
    assert not pair.exact
    assert rep.worst_ratio > 0.0


def test_audit_needs_resolvable_pairs():
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    u = SampledQFunction.from_function(
        grid, lambda p: p[:, 0][:, None, None], q=1, m=1)
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, eps=0.05, beta1=1.0)
    with pytest.raises(BelowResolutionError):
        audit_hypothesis(u, h, Stratification(base=[[0.0, 0.0]]), "I")


def test_coarse_grid_certificate_names_the_resolution_floor():
    """At eps = 0.2 a base point's ladder needs 0.1 >= 8h, so h <= 1/80."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 40.0)
    u = SampledQFunction.from_function(grid, branch_pair_values, q=2, m=2)
    with pytest.raises(BelowResolutionError, match=(
            r"at center \[0\.0, 0\.0\]: rho_top = 0\.2 needs rho_top/2 >= "
            r"8h = 0\.2; the largest admissible h is 0\.0125$")):
        end_to_end_certify(u, Stratification(base=[[0.0, 0.0]]), k=1, q_exp=2.0,
                           mu_claim=0.5)


@pytest.mark.parametrize("kw", [
    {"base": [[math.nan, 0.0]]},
    {"base": [[0.0, 0.0]], "strata": ([[0.5, math.inf]],)},
    {"base": [[0.0, 0.0]], "free_points": [[0.1, 0.2], [math.nan, 0.3]]},
], ids=["base", "stratum", "free"])
def test_stratification_refuses_non_finite_points(kw):
    with pytest.raises(ValueError,
                       match=r"point \[.*(nan|inf).*\] is not finite"):
        Stratification(**kw)


@pytest.mark.parametrize("kw", [
    {"base": [[5.0, 5.0]]},
    {"base": [[0.0, 0.0]], "strata": ([[0.5, 0.0], [1.2, 0.0]],)},
    {"base": [[0.0, 0.0]], "free_points": [[0.99, 0.99]]},
], ids=["base", "stratum", "free"])
def test_audit_refuses_points_off_the_grid_before_fitting(kw, monkeypatch):
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    u = SampledQFunction.from_function(
        grid, lambda p: p[:, 0][:, None, None], q=1, m=1)
    s = Stratification(**kw)
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0)

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before refusing")

    monkeypatch.setattr(certify, "best_fit", no_fit)
    with pytest.raises(ValueError, match="no grid node within one grid step"):
        audit_hypothesis(u, h, s, "I")


def test_end_to_end_refuses_points_off_the_grid():
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    r = np.linalg.norm(grid.points, axis=1)
    u = SampledQFunction(grid, (r ** 1.5)[:, None, None])
    with pytest.raises(ValueError, match=r"point \[5\.0, 5\.0\]"):
        end_to_end_certify(u, Stratification(base=[[5.0, 5.0]]), k=1,
                           q_exp=2.0, mu_claim=0.5)
    with pytest.raises(ValueError, match="nan"):
        end_to_end_certify(u, Stratification(base=[[math.nan, 0.0]]), k=1,
                           q_exp=2.0, mu_claim=0.5)


def two_branch_strata_case():
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    u = SampledQFunction(grid, branch_pair_values(grid.points))
    s = Stratification(base=[[0.0, 0.0]], strata=([[0.5, 0.0]],),
                       free_points=[[-0.5, 0.3], [0.1, -0.6]])
    return u, s


@pytest.fixture(scope="module")
def stratified_run():
    """One stratified end_to_end_certify, counting the audits it runs and
    the ball restrictions the certify module makes for audit masses."""
    u, s = two_branch_strata_case()
    audits = []
    restricts = Counter()
    audit = certify.audit_hypothesis
    restrict = SampledQFunction.restrict

    def counting_audit(*args, **kwargs):
        audits.append(args[3])
        return audit(*args, **kwargs)

    def counting_restrict(self, center, radius):
        if sys._getframe(1).f_globals["__name__"] == certify.__name__:
            key = (id(self), tuple(float(c) for c in center), float(radius))
            restricts[key] += 1
        return restrict(self, center, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "audit_hypothesis", counting_audit)
        mp.setattr(SampledQFunction, "restrict", counting_restrict)
        out = end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.5)
    return u, s, out, audits, restricts


def test_end_to_end_stratified_parts(stratified_run):
    u, s, out, _, _ = stratified_run
    assert out.ok
    assert [a.which for a in out.audits] == ["I", "II", "III"]
    assert [a.checked for a in out.audits] == [1, 1, 2]
    assert [a.beta_used for a in out.audits] == [1.05, 1.05, 1.05]
    assert out.certificate.audit["checked"] == 4
    assert out.soundness["fraction"] == 1.0
    # re-judging the unit-constant tables is auditing at the calibrated ones
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5,
                        beta0=out.audits[0].beta_used,
                        betas=(out.audits[1].beta_used,),
                        beta_tildes=(out.audits[2].beta_used,))
    for rep in out.audits:
        again = audit_hypothesis(u, h, s, rep.which)
        assert dataclasses.replace(again, pairs=()) == \
            dataclasses.replace(rep, pairs=())
        assert again.pairs == rep.pairs


def test_end_to_end_traverses_each_part_once(stratified_run):
    _, _, out, audits, restricts = stratified_run
    assert audits == ["I", "II", "III"]
    # every (component, center, rung) of an audited pair is restricted
    # once for masses, shared by the center's own and family polynomials
    assert restricts and set(restricts.values()) == {1}
    rungs = {(p.center, r) for a in out.audits for p in a.pairs
             for r in (p.sigma, p.rho)}
    assert {key[1:] for key in restricts} == rungs
    assert all(len(a.pairs) == a.checked for a in out.audits)
    assert any(p.calibrating for a in out.audits for p in a.pairs)


def _record_fits(monkeypatch):
    """Record every best_fit call the certify and campanato modules make, as
    (u, center, radius, k, q_exp, result), and count the fits computed: each
    computed fit reads its rounding floor, polyfit.exact_floor, once.  (Its
    design factor is no count: a grid keeps one per ball and degree, shared
    by every fit there.)"""
    calls, computed = [], []
    fit, floor = polyfit.best_fit, polyfit.exact_floor

    def recording(u, center, radius, k, q_exp=2.0, cfg=None):
        res = fit(u, center, radius, k, q_exp, cfg)
        calls.append((u, np.asarray(center, dtype=float).copy(), radius, k, q_exp, res))
        return res

    def counting(mass, q_exp):
        computed.append(1)
        return floor(mass, q_exp)

    for module in (certify, campanato):
        monkeypatch.setattr(module, "best_fit", recording)
    monkeypatch.setattr(polyfit, "exact_floor", counting)
    return calls, computed


def _fit_key(u, center, radius, k, q_exp):
    return id(u), center.tobytes(), radius, k, q_exp


def test_end_to_end_fits_each_ball_once(monkeypatch):
    """The soundness spot check's excess profiles meet the audit's
    comparison balls; each distinct (component, center, radius) is fitted
    once per call, a repeated call gets the first call's FitResult, and the
    outcome is the one computed with no sharing."""
    u, _ = two_branch_strata_case()
    single = SampledQFunction(
        u.grid, (np.linalg.norm(u.grid.points, axis=1) ** 1.5)[:, None, None])
    s = Stratification(base=[[0.0, 0.0]])
    calls, computed = _record_fits(monkeypatch)
    out = end_to_end_certify([u, single], s, k=1, q_exp=2.0, mu_claim=0.5)
    assert out.ok and out.soundness["centers"]
    first = {}
    for *args, res in calls:
        assert first.setdefault(_fit_key(*args), res) is res
    assert {id(c[0]) for c in calls} == {id(u), id(single)}
    assert len(computed) == len(first) < len(calls)
    calls.clear()
    computed.clear()
    with _forgetful_memo():
        unshared = end_to_end_certify([u, single], s, k=1, q_exp=2.0,
                                      mu_claim=0.5)
    assert unshared == out
    assert len(computed) == len(calls)


class _Forgetful(dict):
    """A fit memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


@contextlib.contextmanager
def _forgetful_memo():
    """A block whose fit memo stores nothing: the blocks inside it join it,
    so every best_fit call computes its fit."""
    token = polyfit._SHARED_FITS.set(_Forgetful())
    try:
        yield
    finally:
        polyfit._SHARED_FITS.reset(token)


def test_inner_shared_fits_block_joins_the_outer_memo(monkeypatch):
    u, _ = two_branch_strata_case()
    calls, computed = _record_fits(monkeypatch)
    with polyfit._shared_fits():
        memo = polyfit._SHARED_FITS.get()
        first = certify.best_fit(u, [0.5, 0.2], 0.1, 1, 2.0)
        with polyfit._shared_fits():
            assert polyfit._SHARED_FITS.get() is memo
            assert certify.best_fit(u, [0.5, 0.2], 0.1, 1, 2.0) is first
        # the inner block's end leaves the outer memo in place
        assert polyfit._SHARED_FITS.get() is memo
    assert polyfit._SHARED_FITS.get() is None
    assert len(computed) == 1 and len(calls) == 2


def test_audit_fits_each_ball_once(monkeypatch):
    u, _ = two_branch_strata_case()
    single = SampledQFunction(
        u.grid, (np.linalg.norm(u.grid.points, axis=1) ** 1.5)[:, None, None])
    s = Stratification(base=[[0.0, 0.0]])
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0, beta2=1.0)
    calls, computed = _record_fits(monkeypatch)
    audit_hypothesis([u, single], h, s, "I")
    # the base point's comparison fits are read for each component's family
    # and as the point's own polynomials, and each is computed once
    assert len(computed) == len({_fit_key(*c[:-1]) for c in calls}) == 2
    assert len(calls) > 2
    assert polyfit._SHARED_FITS.get() is None


def test_refused_audit_leaves_no_memo():
    u, _ = two_branch_strata_case()
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0, beta2=1.0)
    s = Stratification(base=[[5.0, 5.0]])
    with pytest.raises(ValueError, match="no grid node within one grid step"):
        audit_hypothesis(u, h, s, "I")
    assert polyfit._SHARED_FITS.get() is None


def test_end_to_end_shares_no_fit_across_calls(monkeypatch):
    u, s = two_branch_strata_case()
    calls, computed = _record_fits(monkeypatch)
    out = end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.5)
    once = len(computed)
    assert polyfit._SHARED_FITS.get() is None
    again = end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.5)
    assert len(computed) == 2 * once
    assert again == out
    # the second call computed its own FitResults
    half = len(calls) // 2
    assert not {id(c[-1]) for c in calls[:half]} & {id(c[-1]) for c in calls[half:]}


def test_end_to_end_keeps_fits_at_nearby_centers_apart(monkeypatch):
    """Two free centers 1e-13 apart share no fit: the fit memo keys each
    center by its exact bytes, and every fit at a center is centered
    there."""
    u, _ = two_branch_strata_case()
    near = [[0.5, 0.2], [0.5 + 1e-13, 0.2]]
    s = Stratification(base=[[0.0, 0.0]], free_points=near)
    calls, computed = _record_fits(monkeypatch)
    end_to_end_certify(u, s, k=1, q_exp=2.0, mu_claim=0.5)
    assert len(computed) == len({_fit_key(*c[:-1]) for c in calls})
    for x in near:
        fits = [c[-1] for c in calls if c[1].tobytes() == np.array(x).tobytes()]
        assert fits
        assert all(f.polynomial.center.tobytes() == np.array(x).tobytes()
                   for f in fits)


def test_nearby_free_points_get_their_own_comparison_polynomials(monkeypatch):
    # a comparison fit used to be shared by centers equal to 12 decimals,
    # so the second point was compared against a polynomial centered at
    # the first
    u, _ = two_branch_strata_case()
    near = [[0.5, 0.2], [0.5 + 1e-13, 0.2]]
    s = Stratification(base=[[0.0, 0.0]], free_points=near)
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta1=1.0, beta2=1.0)
    owns = []
    table = certify._pair_table

    def recording(us, center, own, fams, rho_top, h):
        owns.append((np.array(center), own))
        return table(us, center, own, fams, rho_top, h)

    monkeypatch.setattr(certify, "_pair_table", recording)
    audit_hypothesis(u, h, s, "II")
    assert [c.tobytes() for c, _ in owns] == [np.array(x).tobytes() for x in near]
    for center, own in owns:
        assert all(P.center.tobytes() == center.tobytes() for P in own)


def _r15_sample():
    """The single-valued r^1.5 field on the h = 1/80 disk."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    r = np.linalg.norm(grid.points, axis=1)
    return SampledQFunction(grid, (r ** 1.5)[:, None, None])


_TWO_STRATA = ([[0.5, 0.0]], [[-0.5, 0.0]])
_MISCOUNTED = {
    # components, strata, stratum constant pairs
    "certify-one-component-two-strata": lambda u: end_to_end_certify(
        [u], Stratification(base=[[0.0, 0.0]], strata=_TWO_STRATA), 1, 2.0, 0.5),
    "certify-two-components-one-stratum": lambda u: end_to_end_certify(
        [u, u], Stratification(base=[[0.0, 0.0]], strata=_TWO_STRATA[:1]), 1, 2.0, 0.5),
    "part-three-one-component-two-strata": lambda u: audit_hypothesis(
        [u], DecayHypothesis(**dict(_STRATIFIED, betas=(1.0, 1.0), beta_tildes=(1.0, 2.0))),
        Stratification(base=[[0.0, 0.0]], strata=_TWO_STRATA), "III"),
    "part-one-two-constant-pairs-one-stratum": lambda u: audit_hypothesis(
        [u], DecayHypothesis(**dict(_STRATIFIED, betas=(1.0, 1.0), beta_tildes=(1.0, 1.0))),
        Stratification(base=[[0.0, 0.0]], strata=_TWO_STRATA[:1]), "I"),
}


@pytest.mark.parametrize("case", sorted(_MISCOUNTED))
def test_three_part_counts_must_agree_before_any_fit(case, monkeypatch):
    # the three-part form pairs component i with stratum i and with
    # (betas[i], beta_tildes[i]); mismatched counts raised IndexError, or
    # ran part III reading only beta_tildes[0]
    u = _r15_sample()

    def no_fit(*args):
        raise AssertionError("fitted before the counts were checked")

    monkeypatch.setattr(certify, "_limit_fit", no_fit)
    with pytest.raises(ValueError, match=r"got \d components, \d strata and \d "
                                         r"stratum constant pairs"):
        _MISCOUNTED[case](u)


def test_soundness_centers_are_audited_centers():
    """The soundness check's free centers are every other one of the
    audits' own, at a grid step where the two used to differ."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 64.0)
    r = np.linalg.norm(grid.points, axis=1)
    u = SampledQFunction(grid, (r ** 1.5)[:, None, None])
    s = Stratification(base=[[0.0, 0.0]])
    audited = certify._free_centers(u, certify._bad_all(s))
    assert len(audited) == certify.FREE_CENTERS
    cert = certified_exponent(DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5,
                                              beta1=1.05, beta2=1.05))
    out = certify._soundness_spot_check([u], s, cert, 1, 2.0, 0.2)
    checked = [c["center"] for c in out["centers"]]
    assert checked == [[0.0, 0.0]] + audited[::2].tolist()


def _coarse_sample():
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    return SampledQFunction.from_function(grid, lambda p: p[:, :1, None], q=1, m=1)


_STRATIFIED = dict(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0, betas=(1.0,), beta_tildes=(1.0,))
_CERTIFY_REFUSALS = {
    "gamma-beta1-zero": (lambda: gamma_select(2, 1, 2.0, 0.0, 0.5),
                         ValueError, "beta1 must be positive"),
    "gamma-mu-zero": (lambda: gamma_select(2, 1, 2.0, 1.0, 0.0), ValueError, "mu must lie"),
    "gamma-mu-one": (lambda: gamma_select(2, 1, 2.0, 1.0, 1.0), ValueError, "mu must lie"),
    "hypothesis-q-below-1": (lambda: golden_hypothesis(q_exp=0.5),
                             ValueError, "q_exp must be at least 1"),
    "hypothesis-unpaired-betas": (
        lambda: DecayHypothesis(**dict(_STRATIFIED, beta_tildes=())), ValueError, "pair up"),
    "hypothesis-stratum-constant-zero": (
        lambda: DecayHypothesis(**dict(_STRATIFIED, betas=(0.0,))),
        ValueError, "stratum constants must be positive"),
    "audit-bad-which": (
        lambda: audit_hypothesis(_coarse_sample(), golden_hypothesis(),
                                 Stratification(base=[[0.0, 0.0]]), "IV"),
        ValueError, "which must be"),
    "audit-part-three-of-two-part": (
        lambda: audit_hypothesis(_coarse_sample(), golden_hypothesis(),
                                 Stratification(base=[[0.0, 0.0]]), "III"),
        ValueError, "part III exists only"),
    "audit-part-two-without-strata": (
        lambda: audit_hypothesis(_coarse_sample(), DecayHypothesis(**_STRATIFIED),
                                 Stratification(base=[[0.0, 0.0]]), "II"),
        ValueError, "no strata"),
    "free-centers-none-clear": (
        lambda: certify._free_centers(_coarse_sample(), np.zeros((1, 2))),
        BelowResolutionError, "no free centers"),
}


@pytest.mark.parametrize("case", sorted(_CERTIFY_REFUSALS))
def test_certify_refuses_malformed_input(case):
    call, error, match = _CERTIFY_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
