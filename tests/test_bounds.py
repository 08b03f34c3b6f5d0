import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from eqkd.bounds import (
    SamplingInstance,
    SecurityParams,
    binary_entropy,
    exponent_A,
    hypergeometric_pmf,
    key_rate,
    lemma1_bound,
    plan_parameters,
    rate_threshold,
    theorem2_asymptotic,
    theorem2_bound,
    theorem3_fidelity,
)


def exact_tail(n_total: int, bad: int, n_test: int, lam: float) -> Fraction:
    """P(at most floor(lam * n_test) bad draws), in exact arithmetic."""
    cutoff = math.floor(lam * n_test)
    total = math.comb(n_total, n_test)
    acc = Fraction(0)
    for j in range(cutoff + 1):
        acc += Fraction(math.comb(bad, j) * math.comb(n_total - bad, n_test - j), total)
    return acc


# ---------------------------------------------------------------------------
# Entropy and the sampling exponent
# ---------------------------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_exponent_A_values():
    assert exponent_A(0.11, 0.5) == pytest.approx(0.500084041835472, abs=1e-12)
    assert exponent_A(0.1, 0.3) == pytest.approx(0.16781682137412196, abs=1e-12)
    # at lam = 0 the exponent collapses to -log2(1 - p_bad)
    assert exponent_A(0.0, 0.25) == pytest.approx(-math.log2(0.75), abs=1e-15)
    with pytest.raises(ValueError):
        exponent_A(0.5, 0.4)


def test_exponent_A_positive_below_p_bad():
    for p_bad in (0.1, 0.25, 0.5):
        for lam in np.linspace(0, p_bad * 0.99, 7):
            assert exponent_A(float(lam), p_bad) > 0.0


# ---------------------------------------------------------------------------
# Hypergeometric pieces
# ---------------------------------------------------------------------------

def test_sampling_instance_validation():
    with pytest.raises(ValueError):
        SamplingInstance(n_total=10, n_test=1, p_bad=0.5, lam=0.1)
    with pytest.raises(ValueError):
        SamplingInstance(n_total=10, n_test=10, p_bad=0.5, lam=0.1)
    with pytest.raises(ValueError):
        SamplingInstance(n_total=10, n_test=5, p_bad=0.2, lam=0.3)
    inst = SamplingInstance(n_total=10, n_test=5, p_bad=0.33, lam=0.1)
    with pytest.raises(ValueError):
        _ = inst.whites  # 3.3 bad positions is not a population


def test_hypergeometric_pmf_matches_exact_combinatorics():
    inst = SamplingInstance(n_total=8, n_test=4, p_bad=0.5, lam=0.4)
    total = math.comb(8, 4)
    for j in range(5):
        exact = Fraction(math.comb(4, j) * math.comb(4, 4 - j), total)
        assert hypergeometric_pmf(inst, j) == pytest.approx(float(exact), rel=1e-12)
    assert sum(hypergeometric_pmf(inst, j) for j in range(5)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hypergeometric_pmf(inst, 5)


def test_hypergeometric_pmf_infeasible_counts_are_zero():
    # 2 bad positions in the population: sampling 4 can't see 3 bad
    inst = SamplingInstance(n_total=10, n_test=4, p_bad=0.2, lam=0.1)
    assert hypergeometric_pmf(inst, 3) == 0.0
    # 8 good positions: a sample of 4 can't be all bad either way
    assert hypergeometric_pmf(inst, 4) == 0.0


# ---------------------------------------------------------------------------
# Tail bound
# ---------------------------------------------------------------------------

def test_lemma1_exponent_formula():
    inst = SamplingInstance(n_total=10_000, n_test=100, p_bad=0.25, lam=0.1)
    res = lemma1_bound(inst)
    a = exponent_A(0.1, 0.25)
    expected = 100 * (a - 100 / ((10_000 - 100) * math.log(2)))
    assert expected > 0
    assert res.exponent == pytest.approx(expected, rel=1e-12)
    assert res.bound == pytest.approx(2.0**-expected, rel=1e-12)


def test_lemma1_bound_dominates_exact_tail():
    inst = SamplingInstance(n_total=10_000, n_test=100, p_bad=0.25, lam=0.1)
    res = lemma1_bound(inst)
    assert res.bound < 0.01  # non-vacuous on this geometry
    tail = exact_tail(10_000, 2500, 100, 0.1)
    assert Fraction(res.bound) >= tail


def test_lemma1_bound_clamps_at_one():
    # sample nearly the whole population: the correction dominates
    inst = SamplingInstance(n_total=120, n_test=100, p_bad=0.25, lam=0.1)
    res = lemma1_bound(inst)
    assert res.exponent < 0
    assert res.bound == 1.0


def test_lemma1_strengthens_with_more_samples():
    smaller = lemma1_bound(SamplingInstance(10_000, 100, 0.25, 0.1))
    larger = lemma1_bound(SamplingInstance(10_000, 400, 0.25, 0.1))
    assert larger.exponent > smaller.exponent


# ---------------------------------------------------------------------------
# Information and fidelity bounds
# ---------------------------------------------------------------------------

def test_theorem2_reference_value():
    assert theorem2_bound(0.01, 10) == pytest.approx(0.2807931221372925, abs=1e-12)
    assert theorem2_bound(0.0, 10) == 0.0


def test_theorem2_direct_formula():
    delta, k = 0.1, 1
    expected = -(1 - delta) * math.log2(1 - delta) - delta * math.log2(delta / (2**2 - 1))
    assert theorem2_bound(delta, k) == pytest.approx(expected, rel=1e-12)


def test_theorem2_monotone():
    assert theorem2_bound(0.02, 10) > theorem2_bound(0.01, 10)
    assert theorem2_bound(0.01, 20) > theorem2_bound(0.01, 10)


def test_theorem2_validation():
    with pytest.raises(ValueError):
        theorem2_bound(1.0, 10)
    with pytest.raises(ValueError):
        theorem2_bound(-0.1, 10)
    with pytest.raises(ValueError):
        theorem2_bound(0.1, 0)


@pytest.mark.parametrize(
    "k",
    [0, -3, 2.5, 10.0, float("inf"), math.nan, True, "10",
     pytest.param(2**1022 + 1, id="2**1022+1"), pytest.param(10**400, id="10**400")],
    ids=repr,
)
def test_every_bound_refuses_a_key_length_that_is_not_a_positive_int(k):
    # inf, and integers past the float range, once overflowed in
    # theorem2_bound, theorem2_asymptotic and the planner, which takes k from
    # SecurityParams; 2.5 passed theorem2_asymptotic and SecurityParams.
    # The population sizes and the pulse count follow the same rule: past the
    # float range they overflowed in lemma1_bound and the planner.
    with pytest.raises(ValueError, match="k must be a positive integer"):
        theorem2_bound(0.1, k)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        theorem2_asymptotic(0.1, k)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        SecurityParams(u=20, s=20, k=k, N=10**6)
    with pytest.raises(ValueError, match="N must be a positive integer of at most 2"):
        SecurityParams(u=20, s=20, k=10, N=k)
    with pytest.raises(ValueError, match="n_total must be a positive integer of at most 2"):
        SamplingInstance(n_total=k, n_test=10, p_bad=0.2, lam=0.1)
    with pytest.raises(ValueError, match="n_test must be a positive integer of at most 2"):
        SamplingInstance(n_total=10**6, n_test=k, p_bad=0.2, lam=0.1)


def test_the_largest_key_length_gives_finite_bounds():
    k = 2**1022
    assert math.isfinite(theorem2_bound(0.1, k)) and math.isfinite(theorem2_asymptotic(0.1, k))
    for n_test in (10, 2**1021):
        tail = lemma1_bound(SamplingInstance(n_total=k, n_test=n_test, p_bad=0.2, lam=0.1))
        assert 0.0 <= tail.bound <= 1.0 and math.isfinite(tail.exponent)


def test_theorem2_asymptotic_agreement():
    exact = theorem2_bound(1e-6, 128)
    approx = theorem2_asymptotic(1e-6, 128)
    assert abs(exact - approx) / exact < 1e-3


def test_theorem3_values():
    assert theorem3_fidelity(0.001, 0.01) == pytest.approx(0.9)
    with pytest.warns(UserWarning):
        assert theorem3_fidelity(0.02, 0.01) == 0.0
    with pytest.raises(ValueError):
        theorem3_fidelity(0.001, 0.0)
    assert theorem3_fidelity(0.0, 1.0) == 1.0
    # probabilities outside [0, 1], NaN among them; eps2 > 0 as well
    for eps1, eps2 in [(-0.1, 0.5), (1.5, 0.5), (math.nan, 0.5), (0.1, 3.0), (0.1, -0.5),
                       (0.1, math.nan), (math.nan, math.nan)]:
        with pytest.raises(ValueError):
            theorem3_fidelity(eps1, eps2)


# ---------------------------------------------------------------------------
# Key rates
# ---------------------------------------------------------------------------

def h(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def bisect_root(f, lo, hi, tol=1e-12):
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_key_rate_formulas():
    e = 0.05
    assert key_rate(e, "css_shannon") == pytest.approx(1 - 2 * h(e), rel=1e-12)
    assert key_rate(e, "mayers") == pytest.approx(1 - h(e) - h(2 * e), rel=1e-12)
    assert key_rate(e, "css_gv") == pytest.approx(1 - 2 * h(2 * e), rel=1e-12)
    assert key_rate(0.0, "css_shannon") == 1.0
    assert key_rate(0.2, "css_shannon") == 0.0  # clamped past the threshold
    with pytest.raises(ValueError):
        key_rate(0.5, "css_shannon")
    with pytest.raises(ValueError):
        key_rate(0.05, "nope")


def test_rate_thresholds_match_independent_bisection():
    shannon = bisect_root(lambda e: 1 - 2 * h(e), 0.05, 0.25)
    mayers = bisect_root(lambda e: 1 - h(e) - h(2 * e), 0.02, 0.25)
    gv = bisect_root(lambda e: 1 - 2 * h(2 * e), 0.02, 0.25)
    assert rate_threshold("css_shannon") == pytest.approx(shannon, abs=1e-8)
    assert rate_threshold("mayers") == pytest.approx(mayers, abs=1e-8)
    assert rate_threshold("css_gv") == pytest.approx(gv, abs=1e-8)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

def test_security_params_validation():
    with pytest.raises(ValueError):
        SecurityParams(u=0, s=10, k=1, N=100)
    with pytest.raises(ValueError):
        SecurityParams(u=10, s=None, k=1, N=100)  # no secrecy target at all
    with pytest.raises(ValueError):
        SecurityParams(u=10, s=10, k=0, N=100)
    for c in (-1.0, math.nan):
        with pytest.raises(ValueError, match="c must be positive"):
            SecurityParams(u=10, s=None, c=c, k=1, N=100)
    for u in (math.nan, 1075):  # 2^-1075 rounds to 0
        with pytest.raises(ValueError, match="1074"):
            SecurityParams(u=u, s=10, k=1, N=100)
    with pytest.raises(ValueError, match="s must be positive"):
        SecurityParams(u=10, s=math.nan, k=1, N=100)
    sec = SecurityParams(u=10, s=None, c=0.5, a_prime=0.5, k=8, N=10_000)
    assert sec.effective_s() == pytest.approx(0.5 * 100.0)


def test_plan_satisfies_full_chain():
    sec = SecurityParams(u=30, s=30, k=100, N=1_000_000)
    plan = plan_parameters(sec, 0.10, 0.25)
    assert plan.feasible
    # replay the audited chain from the returned parameters
    inst = SamplingInstance(plan.n_total, plan.n_test, 0.25, 0.10)
    exponent = lemma1_bound(inst).exponent
    eps1 = 2.0**-exponent
    defect = eps1 / 2.0**-30
    info = theorem2_bound(defect, 100)
    assert info <= 2.0**-30
    assert plan.eve_information == pytest.approx(info, rel=1e-9)
    assert plan.p <= 0.5
    assert sec.N * (plan.p**2 - plan.delta_prime) >= plan.n_test


def test_plan_is_minimal():
    sec = SecurityParams(u=30, s=30, k=100, N=1_000_000)
    plan = plan_parameters(sec, 0.10, 0.25)

    def chain_ok(n_test: int) -> bool:
        p = math.sqrt((10.0 / 9.0) * n_test / sec.N)
        n_key = int(sec.N * (1 - p) ** 2) - n_test
        inst = SamplingInstance(n_test + n_key, n_test, 0.25, 0.10)
        eps1 = 2.0 ** -lemma1_bound(inst).exponent
        defect = eps1 / 2.0**-30
        if defect >= 1.0:
            return False
        return theorem2_bound(defect, 100) <= 2.0**-30

    assert chain_ok(plan.n_test)
    assert not chain_ok(plan.n_test - 1)


def test_plan_infeasible_for_tiny_population():
    sec = SecurityParams(u=40, s=40, k=1000, N=200)
    plan = plan_parameters(sec, 0.10, 0.25)
    assert not plan.feasible
    assert plan.reason is not None
    assert plan.n_test is None


_INFEASIBLE = "no bias p <= 1/2 meets the targets for this N"
_ALPHA = 0.10453815576167824  # exponent_A(0.10, 0.25)

# Plans pinned to the last digit: the README example, acceptance c7's two
# calls, a population too small for any test, a (c, a_prime) scaling law, a
# lam = 0 test at N = 10^4, and targets no test size meets where, at
# n_test = 2048, the finite-population correction drives the tail exponent
# to about -8600, past what 2^-E can hold.
PINNED_PLANS = [
    (
        dict(u=30, s=30, k=100, N=10**6), 0.10, 0.25,
        dict(feasible=True, n_test=656, p=0.026997942308422118,
             delta_prime=7.288888888888891e-05, alpha=_ALPHA, n_total=946733,
             eps1=3.579329323779494e-21, eps2=9.313225746154785e-10,
             fidelity_defect=3.8432755968116804e-12, eve_information=9.199398819660061e-10,
             target_information=9.313225746154785e-10, reason=None),
    ),
    (
        dict(u=20, s=20, k=256, N=10**6), 0.10, 0.25,
        dict(feasible=True, n_test=473, p=0.0229249984853992,
             delta_prime=5.255555555555556e-05, alpha=_ALPHA, n_total=954675,
             eps1=1.647910976281018e-15, eps2=9.5367431640625e-07,
             fidelity_defect=1.7279598998648448e-09, eve_information=9.375063338857327e-07,
             target_information=9.5367431640625e-07, reason=None),
    ),
    (
        dict(u=20, s=20, k=512, N=10**6), 0.10, 0.25,
        dict(feasible=True, n_test=483, p=0.02316606713852541,
             delta_prime=5.3666666666666686e-05, alpha=_ALPHA, n_total=954204,
             eps1=8.065795732477546e-16, eps2=9.5367431640625e-07,
             fidelity_defect=8.457599825978375e-10, eve_information=8.927687836406283e-07,
             target_information=9.5367431640625e-07, reason=None),
    ),
    (
        dict(u=40, s=40, k=1000, N=200), 0.10, 0.25,
        dict(feasible=False, n_test=None, p=None, delta_prime=None, alpha=_ALPHA,
             n_total=None, eps1=None, eps2=9.094947017729282e-13, fidelity_defect=None,
             eve_information=None, target_information=9.094947017729282e-13,
             reason=_INFEASIBLE),
    ),
    (
        dict(u=20, s=None, c=0.5, a_prime=0.5, k=256, N=10**6), 0.10, 0.25,
        dict(feasible=True, n_test=5580, p=0.07874007874011811, delta_prime=0.00062,
             alpha=_ALPHA, n_total=848719, eps1=2.7569561184456234e-160,
             eps2=9.5367431640625e-07, fidelity_defect=2.890878018855238e-154,
             eve_information=2.9587792910858273e-151,
             target_information=3.054936363499605e-151, reason=None),
    ),
    (
        dict(u=10, s=20, k=10, N=10**4), 0.0, 0.2,
        dict(feasible=True, n_test=119, p=0.11498792207106895,
             delta_prime=0.0013222222222222225, alpha=0.3219280948873623, n_total=7832,
             eps1=1.8410657212065265e-11, eps2=0.0009765625,
             fidelity_defect=1.885251298515483e-08, eve_information=8.880167355893524e-07,
             target_information=9.5367431640625e-07, reason=None),
    ),
    (
        dict(u=20, s=50, k=64, N=10**4), 0.10, 0.25,
        dict(feasible=False, n_test=None, p=None, delta_prime=None, alpha=_ALPHA,
             n_total=None, eps1=None, eps2=2.0**-20, fidelity_defect=None,
             eve_information=None, target_information=2.0**-50, reason=_INFEASIBLE),
    ),
]


@pytest.mark.parametrize("sec, lam, p_bad, expected", PINNED_PLANS)
def test_plan_matches_pinned_values(sec, lam, p_bad, expected):
    plan = plan_parameters(SecurityParams(**sec), lam, p_bad)
    assert dataclasses.asdict(plan) == expected


def test_plan_rejects_vacuous_test():
    sec = SecurityParams(u=20, s=20, k=10, N=1_000_000)
    with pytest.raises(ValueError):
        plan_parameters(sec, 0.25, 0.25)
