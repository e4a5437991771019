import dataclasses
import math
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import certify
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
    {"eps": math.nan}, {"beta": math.inf}, {"beta0": math.nan},
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
        Stratification(base=[[0.0, 0.0]],
                       strata=([[0.0, 0.0]],)).validate()


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


def test_audit_branch_point_with_limit_polynomial(branch_sample):
    # Around the two-valued branch point the fine/coarse mass ratio matches
    # the claimed modulus exactly (the data is homogeneous), so the premise
    # holds with a constant only a tolerance above one.
    s = Stratification(base=[[0.0, 0.0]])
    K = len(multi_indices(2, 1))
    zero = QPolynomial(np.zeros(2), 1, np.zeros((2, 2, K)))
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, eps=0.2, beta1=1.05)
    rep = audit_hypothesis(branch_sample, h, s, "I",
                           fits={((0.0, 0.0), h.eps): [zero]})
    assert rep.clean
    assert rep.worst_ratio == pytest.approx(1.0, abs=0.05)


def test_part_three_does_not_depend_on_part_two_fits():
    # part II fits the stratum point at its eps-capped radius; part III
    # must use that radius too, so sharing the fit cache changes nothing
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    u = SampledQFunction(grid, branch_pair_values(grid.points))
    s = Stratification(base=[[0.0, 0.0]], strata=([[0.5, 0.0]],),
                       free_points=[[-0.5, 0.3], [0.1, -0.6]])
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0, betas=(1.0,),
                        beta_tildes=(1.0,))
    alone = audit_hypothesis(u, h, s, "III")
    fits = {}
    audit_hypothesis(u, h, s, "II", fits=fits)
    assert audit_hypothesis(u, h, s, "III", fits=fits) == alone


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
