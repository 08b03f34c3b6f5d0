r"""Finite-key security bounds and parameter planning.

The quantities here connect the observable test statistics of a session to
guarantees about the final key:

* a hypergeometric tail bound on the probability that a random test sample
  looks clean while the untested positions are bad,
* a bound on the eavesdropper's information given the fidelity of the
  distilled state,
* a fidelity floor for any strategy that passes verification with given
  probability, and
* asymptotic key-rate formulas with their positivity thresholds.

A small planner inverts the chain: given target security exponents it
returns the test-sample size and basis bias to run with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

_LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with H(0) = H(1) = 0.

    Parameters
    ----------
    x : float in [0, 1]

    Raises
    ------
    ValueError
        If x lies outside [0, 1].
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def exponent_A(lam: float, p_bad: float) -> float:
    """Large-deviation exponent A(lam, p) = -H(lam) - lam log2 p - (1-lam) log2 (1-p).

    Nonnegative on 0 <= lam <= p < 1 and zero exactly at lam = p; it is the
    per-sample exponent at which observing a fraction lam or less becomes
    unlikely when the population fraction is p.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    if not (0.0 <= p_bad < 1.0):
        raise ValueError("p_bad must lie in [0, 1)")
    if lam > p_bad:
        raise ValueError("exponent defined for lam <= p_bad")
    term_p = 0.0 if lam == 0.0 else -lam * math.log2(p_bad)
    term_q = 0.0 if lam == 1.0 else -(1.0 - lam) * math.log2(1.0 - p_bad)
    return -binary_entropy(lam) + term_p + term_q


def _check_count(name: str, value) -> None:
    """A count is an int (not a bool) from 1 to 2^1022; any other is a ValueError.

    The bounds take a count, and twice a key length, as a float, which that
    range keeps finite.
    """
    if type(value) is not int or not 1 <= value <= 2**1022:
        raise ValueError(f"{name} must be a positive integer of at most 2^1022")


@dataclass(frozen=True)
class SamplingInstance:
    """A without-replacement test of n_test draws from n_total positions.

    p_bad is the population fraction of bad positions and lam the acceptance
    threshold: the tail of interest is P(observed count <= floor(lam * n_test)).
    """

    n_total: int
    n_test: int
    p_bad: float
    lam: float

    def __post_init__(self) -> None:
        _check_count("n_total", self.n_total)
        _check_count("n_test", self.n_test)
        if not (1 < self.n_test < self.n_total):
            raise ValueError("need 1 < n_test < n_total")
        if not (0.0 <= self.lam < self.p_bad < 1.0):
            raise ValueError("need 0 <= lam < p_bad < 1")

    @property
    def whites(self) -> int:
        """Integral bad-position count; raises when p_bad * n_total is not integral."""
        w = self.p_bad * self.n_total
        if abs(w - round(w)) > 1e-9:
            raise ValueError(f"p_bad * n_total = {w} is not an integer")
        return int(round(w))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeometric_pmf(inst: SamplingInstance, j: int) -> float:
    """P(exactly j bad positions in the sample), computed in log space.

    Parameters
    ----------
    inst : SamplingInstance with an integral bad count
    j : int, 0 <= j <= n_test

    Returns
    -------
    float probability; zero when j is infeasible for the population split.
    """
    if not (0 <= j <= inst.n_test):
        raise ValueError("j must lie in [0, n_test]")
    w = inst.whites
    b = inst.n_total - w
    if j > w or inst.n_test - j > b:
        return 0.0
    log_p = (
        _log_comb(w, j)
        + _log_comb(b, inst.n_test - j)
        - _log_comb(inst.n_total, inst.n_test)
    )
    return math.exp(log_p)


@dataclass(frozen=True)
class Lemma1Result:
    """Tail bound with its raw exponent.

    bound is clamped to 1 (a trivially valid bound); exponent is the raw
    value E such that the unclamped bound is 2^-E, returned so callers can
    chain exponents without underflow.
    """

    bound: float
    exponent: float


def lemma1_bound(inst: SamplingInstance) -> Lemma1Result:
    """Upper bound on P(observed bad count <= floor(lam * n_test)).

    The bound is 2^(-n_test * (A(lam, p_bad) - n_test / ((n_total - n_test) ln 2))),
    valid for n_test > 1 and 0 <= lam < p_bad. The correction term accounts
    for sampling without replacement from a finite population; the bound can
    exceed 1 when the sample is a large fraction of the population.
    """
    a = exponent_A(inst.lam, inst.p_bad)
    correction = inst.n_test / ((inst.n_total - inst.n_test) * _LN2)
    exponent = inst.n_test * (a - correction)
    try:
        raw = 2.0 ** (-exponent)
    except OverflowError:
        raw = math.inf
    return Lemma1Result(bound=min(1.0, raw), exponent=exponent)


def theorem2_bound(delta: float, k: int) -> float:
    """Eavesdropper-information bound (bits) from a fidelity defect delta.

    If the distilled 2k-qubit state has fidelity at least 1 - delta with the
    ideal key state, the information accessible outside the lab is below
    -(1 - delta) log2(1 - delta) - delta log2(delta / (2^{2k} - 1)).
    Evaluated in log space so k in the hundreds does not overflow.

    Parameters
    ----------
    delta : float in [0, 1); delta = 0 returns exactly 0
    k : positive key length in bits
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    _check_count("k", k)
    if delta == 0.0:
        return 0.0
    # log2(2^{2k} - 1) without forming 2^{2k}
    log_m1 = 2.0 * k + math.log1p(-(2.0 ** (-2.0 * k))) / _LN2
    term_fid = -(1.0 - delta) * (math.log1p(-delta) / _LN2)
    term_tail = delta * (log_m1 - math.log2(delta))
    return term_fid + term_tail


def theorem2_asymptotic(delta: float, k: int) -> float:
    """First-order form delta * (1/ln 2 + 2k + log2(1/delta)) of the bound."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    _check_count("k", k)
    return delta * (1.0 / _LN2 + 2.0 * k + math.log2(1.0 / delta))


def theorem3_fidelity(eps1: float, eps2: float) -> float:
    """Fidelity floor 1 - eps1/eps2 for strategies passing verification.

    eps1 bounds the joint probability of passing while the state is bad;
    eps2 is the passing probability actually achieved. The floor is clamped
    at 0; a zero value is vacuous and a warning is emitted.
    """
    # written so that a NaN probability fails the checks too
    if not 0.0 <= eps1 <= 1.0:
        raise ValueError(f"eps1 must lie in [0, 1], not {eps1!r}")
    if not 0.0 < eps2 <= 1.0:
        raise ValueError(f"eps2 must lie in (0, 1] (conditioning on passing), not {eps2!r}")
    if eps1 >= eps2:
        warnings.warn("eps1 >= eps2: fidelity bound is vacuous", stacklevel=2)
        return 0.0
    return 1.0 - eps1 / eps2


KEY_RATE_VARIANTS = ("css_shannon", "css_gv", "mayers")


def _raw_key_rate(e: float, variant: str) -> float:
    if variant == "css_shannon":
        return 1.0 - 2.0 * binary_entropy(e)
    if variant == "css_gv":
        # existence-style rate; meaningful for e < 1/4
        return 1.0 - 2.0 * binary_entropy(min(2.0 * e, 1.0))
    if variant == "mayers":
        return 1.0 - binary_entropy(e) - binary_entropy(min(2.0 * e, 1.0))
    raise ValueError(f"unknown variant {variant!r}; choose from {KEY_RATE_VARIANTS}")


def key_rate(e: float, variant: str) -> float:
    """Asymptotic key rate for an error rate e under one rate formula.

    Negative raw values are clamped to 0 (no key is distillable).

    Parameters
    ----------
    e : error rate in [0, 1/2)
    variant : one of css_shannon, css_gv, mayers
    """
    if not (0.0 <= e < 0.5):
        raise ValueError("error rate must lie in [0, 1/2)")
    return max(0.0, _raw_key_rate(e, variant))


def rate_threshold(variant: str) -> float:
    """Largest error rate with positive rate, found by bisection to within 1e-9."""
    lo, hi = 0.0, 0.4999999
    if _raw_key_rate(lo, variant) <= 0.0:
        return 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _raw_key_rate(mid, variant) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SecurityParams:
    """Security targets for the planner.

    u : verification exponent; the passing probability floor is 2^-u
    s : secrecy exponent; the information target is 2^-s (may instead be
        derived from c * N^a_prime when s is None)
    k : final key length in bits
    N : transmitted pulse count
    a_prime, c : optional scaling law for s
    """

    u: float
    s: float | None
    k: int
    N: int
    a_prime: float = 1.0
    c: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.u <= 1074.0):
            raise ValueError("u must lie in (0, 1074], where 2^-u is a nonzero double")
        if self.s is None and self.c is None:
            raise ValueError("provide s or the (c, a_prime) scaling law")
        # written to reject NaN, which would make every chain meet its target
        if self.s is not None and not self.s > 0.0:
            raise ValueError("s must be positive")
        if self.s is None and not self.c > 0.0:
            raise ValueError("c must be positive")
        if not (0.0 <= self.a_prime <= 1.0):
            raise ValueError("a_prime must lie in [0, 1]")
        _check_count("k", self.k)
        _check_count("N", self.N)
        if self.N < 4:
            raise ValueError("N too small")

    def effective_s(self) -> float:
        if self.s is not None:
            return self.s
        return self.c * self.N**self.a_prime


@dataclass(frozen=True)
class ParameterPlan:
    """Planner output: the run parameters plus the audited security chain."""

    feasible: bool
    n_test: int | None
    p: float | None
    delta_prime: float | None
    alpha: float
    n_total: int | None
    eps1: float | None
    eps2: float | None
    fidelity_defect: float | None
    eve_information: float | None
    target_information: float
    reason: str | None = None


def _plan_geometry(n_test: int, N: int) -> tuple[float, float, int]:
    """(p, delta_prime, raw_key_length) for a test size, under delta' = p^2/10."""
    p = math.sqrt((10.0 / 9.0) * n_test / N)
    # nudge so the integer feasibility N (p^2 - delta') >= n_test survives rounding
    while N * (p * p - p * p / 10.0) < n_test:
        p = math.nextafter(p, 1.0)
    delta_prime = p * p / 10.0
    n_key = int(N * (1.0 - p) ** 2) - n_test
    return p, delta_prime, n_key


def plan_parameters(
    sec: SecurityParams, lam_test: float, p_bad_assumed: float
) -> ParameterPlan:
    """Choose (n_test, p) meeting the security targets.

    The plan takes the smallest test-sample size n_test whose full chain
    (tail bound -> fidelity defect -> information bound) pushes the
    eavesdropper information below 2^-s, then sets the basis bias from
    N (p^2 - delta') = n_test with delta' = p^2 / 10. Both test classes are
    assumed to use n_test samples.

    Parameters
    ----------
    sec : SecurityParams
    lam_test : acceptance threshold the test will use (e.g. e_max - delta_e)
    p_bad_assumed : bad-population fraction the bound guards against

    Returns
    -------
    ParameterPlan; infeasible (with a reason) when no bias p <= 1/2 works.
    """
    alpha = exponent_A(lam_test, p_bad_assumed)
    if alpha <= 0.0:
        raise ValueError("test exponent is zero: lam_test must be below p_bad_assumed")
    eps2 = 2.0**-sec.u
    target = 2.0**-sec.effective_s()
    infeasible = ParameterPlan(
        feasible=False, n_test=None, p=None, delta_prime=None, alpha=alpha, n_total=None,
        eps1=None, eps2=eps2, fidelity_defect=None, eve_information=None,
        target_information=target, reason="no bias p <= 1/2 meets the targets for this N",
    )

    def audit(n_test: int) -> ParameterPlan | None:
        """The plan at n_test; None when the chain misses the target there,
        ``infeasible`` when the geometry leaves no bias p <= 1/2 or no key bits."""
        p, delta_prime, n_key = _plan_geometry(n_test, sec.N)
        if p > 0.5 or n_key < 1:
            return infeasible
        inst = SamplingInstance(n_test + n_key, n_test, p_bad_assumed, lam_test)
        tail = lemma1_bound(inst)
        eps1 = tail.bound if tail.exponent < 1060 else 0.0
        defect = eps1 / eps2
        if defect >= 1.0:
            return None
        info = theorem2_bound(defect, sec.k)
        if info > target:
            return None
        return ParameterPlan(
            feasible=True, n_test=n_test, p=p, delta_prime=delta_prime, alpha=alpha,
            n_total=inst.n_total, eps1=eps1, eps2=eps2, fidelity_defect=defect,
            eve_information=info, target_information=target,
        )

    # doubling bracket, then bisection for the smallest passing size; the
    # plan at hi is always in hand, so no size is audited twice
    lo, hi = 2, 2
    plan = audit(hi)
    while plan is None:
        lo, hi = hi + 1, 2 * hi
        if hi > sec.N:
            return infeasible
        plan = audit(hi)
    while lo < hi and plan.feasible:
        mid = (lo + hi) // 2
        at_mid = audit(mid)
        if at_mid is not None and at_mid.feasible:
            hi, plan = mid, at_mid
        else:
            lo = mid + 1
    return plan
