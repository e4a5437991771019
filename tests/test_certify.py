import math

import numpy as np
import pytest

from qvalued.certify import (
    AuditReport,
    DecayHypothesis,
    HolderCertificate,
    Stratification,
    audit_hypothesis,
    certified_exponent,
    certified_exponent_stratified,
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


def one_stratum():
    return Stratification(base=[[0.0, 0.0]], strata=([[0.5, 0.0]],))


def test_stratified_matches_unstratified_exponent():
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                        betas=(1.0,), beta_tildes=(1.0,))
    cs = certified_exponent_stratified(h, one_stratum(), 4)
    cu = certified_exponent(golden_hypothesis())
    assert cs.mu_tilde <= cu.mu_tilde
    assert cs.lambda_tilde == cu.lambda_tilde
    assert cs.constant >= cu.constant


def test_stratified_symmetric_pair_equals_single():
    h1 = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                         betas=(1.0,), beta_tildes=(1.0,))
    h2 = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                         betas=(1.0, 1.0), beta_tildes=(1.0, 1.0))
    s2 = Stratification(base=[[0.0, 0.0]],
                        strata=([[0.5, 0.0]], [[0.0, 0.5]]))
    c1 = certified_exponent_stratified(h1, one_stratum(), 4)
    c2 = certified_exponent_stratified(h2, s2, 4)
    assert c2.mu_tilde == c1.mu_tilde
    assert c2.lambda_tilde == c1.lambda_tilde


def test_stratified_golden_constant():
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                        betas=(1.0,), beta_tildes=(1.0,))
    c = certified_exponent_stratified(h, one_stratum(), 4)
    assert c.gamma == 2.0 ** -12
    assert abs(c.lambda_tilde - 25.0 / 6.0) <= 1e-15
    # scale comparison * recentering * geometric sum * offset window of
    # four hidden dyadic steps at gamma = 2^-12
    assert c.constant == pytest.approx(9.850754218203666e63, rel=1e-12)
    assert dict(c.factors)["offset_window"] == pytest.approx(
        2.0 ** 200, rel=1e-12)


def test_stratified_guards():
    h = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                        betas=(1.0,), beta_tildes=(1.0,))
    with pytest.raises(ValueError):
        certified_exponent_stratified(h, one_stratum(), 2)  # window floor
    bad = DecayHypothesis(n=2, k=1, q_exp=2.0, mu=0.5, beta0=1.0,
                          betas=(1e40,), beta_tildes=(1.0,))
    with pytest.raises(WeakConstantsError, match="stratum 1"):
        certified_exponent_stratified(bad, one_stratum(), 4)
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
