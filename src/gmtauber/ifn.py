"""Intuitionistic fuzzy numbers: membership/non-membership pairs with
probabilistic-sum addition and product multiplication, the two standard
order relations, windowed convergence checks, and the weighted
averaging/geometric mean sequences with their recovery diagnostics.

The weighted means reduce componentwise to the real-valued geometric
mean transform from `gmean`, which is also how the recovery conditions
from `tauber` are applied: to (1-mu_n, nu_n) for the additive mean and
to (mu_n, 1-nu_n) for the multiplicative one.
"""

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mcore import TailWindow, Verdict
from .weights import LambdaGrid, WeightSequence
from .gmean import transform_log_values
from .tauber import ReportThresholds, TauberReport, recoverability_report

__all__ = [
    "IFN",
    "EpsilonIFN",
    "PartialOrder",
    "AdditionLimitOutcome",
    "IFNTauberReport",
    "ADD_IDENTITY",
    "MUL_IDENTITY",
    "total_order_cmp",
    "partial_order_cmp",
    "add",
    "subtract",
    "multiply",
    "scalar_mul",
    "power",
    "in_addition_region",
    "addition_limit_check",
    "zhangxu_limit_check",
    "zhangxu_limit_check_sampled",
    "oplus_convergence_check",
    "otimes_convergence_check",
    "oplus_sandwich_holds",
    "otimes_sandwich_holds",
    "ifwa_means",
    "ifwg_means",
    "np_oplus_verdict",
    "gp_otimes_verdict",
    "ifn_tauber_report",
]

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class IFN:
    """Membership/non-membership pair with mu, nu in [0, 1], mu + nu <= 1.

    Rounding overshoot up to 1e-12 (tiny negative components, mu + nu
    marginally above 1) is clamped back onto the simplex; anything
    larger is rejected.
    """

    mu: float
    nu: float

    def __post_init__(self):
        mu, nu = float(self.mu), float(self.nu)
        if not (math.isfinite(mu) and math.isfinite(nu)):
            raise ValueError(f"IFN components must be finite, got ({mu}, {nu})")
        if mu < -_SIMPLEX_TOL or nu < -_SIMPLEX_TOL:
            raise ValueError(f"IFN components must be nonnegative, got ({mu}, {nu})")
        mu, nu = max(mu, 0.0), max(nu, 0.0)
        s = mu + nu
        if s > 1.0 + _SIMPLEX_TOL:
            raise ValueError(f"IFN needs mu + nu <= 1, got {mu} + {nu} = {s}")
        if s > 1.0:
            mu, nu = mu / s, nu / s
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def score(self) -> float:
        return self.mu - self.nu

    @property
    def accuracy(self) -> float:
        return self.mu + self.nu

    @property
    def hesitancy(self) -> float:
        return 1.0 - self.mu - self.nu

    def __repr__(self) -> str:
        return f"IFN({self.mu!r}, {self.nu!r})"


ADD_IDENTITY = IFN(0.0, 1.0)
MUL_IDENTITY = IFN(1.0, 0.0)


@dataclass(frozen=True)
class EpsilonIFN:
    """A scalar eps in (0, 1] seen as either of the two epsilon IFNs:
    (eps, 1-eps) for additive sandwiches, (1-eps, eps) for multiplicative."""

    eps: float

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")

    @property
    def additive_form(self) -> IFN:
        return IFN(self.eps, 1.0 - self.eps)

    @property
    def multiplicative_form(self) -> IFN:
        return IFN(1.0 - self.eps, self.eps)


class PartialOrder(enum.Enum):
    LESS_L = "less_L"
    GREATER_L = "greater_L"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class AdditionLimitOutcome(enum.Enum):
    HOLDS = "holds"
    NOT_APPLICABLE = "not_applicable"
    FAILS = "fails"


def total_order_cmp(a: IFN, b: IFN, tie_tol: float = 1e-12) -> int:
    """Score-then-accuracy comparison; returns -1, 0 or +1.

    Score and accuracy ties are decided with an absolute tolerance so
    that decimals like 0.6 - 0.4 vs 0.5 - 0.3 compare as equal scores.
    """
    ds = a.score - b.score
    if ds < -tie_tol:
        return -1
    if ds > tie_tol:
        return 1
    dh = a.accuracy - b.accuracy
    if dh < -tie_tol:
        return -1
    if dh > tie_tol:
        return 1
    return 0


def partial_order_cmp(a: IFN, b: IFN) -> PartialOrder:
    """Componentwise order: mu up and nu down, both strict."""
    if a.mu == b.mu and a.nu == b.nu:
        return PartialOrder.EQUAL
    if a.mu > b.mu and a.nu < b.nu:
        return PartialOrder.GREATER_L
    if a.mu < b.mu and a.nu > b.nu:
        return PartialOrder.LESS_L
    return PartialOrder.INCOMPARABLE


def _lt_L(a: IFN, b: IFN) -> bool:
    return a.mu < b.mu and a.nu > b.nu


def _below_mul_identity(a: IFN) -> bool:
    # a <_L (1, 0)
    return a.mu < 1.0 and a.nu > 0.0


def _above_add_identity(a: IFN) -> bool:
    # a >_L (0, 1)
    return a.mu > 0.0 and a.nu < 1.0


def add(a: IFN, b: IFN) -> IFN:
    """Probabilistic sum on mu, product on nu; identity (0, 1)."""
    return IFN(1.0 - (1.0 - a.mu) * (1.0 - b.mu), a.nu * b.nu)


def multiply(a: IFN, b: IFN) -> IFN:
    """Product on mu, probabilistic sum on nu; identity (1, 0)."""
    return IFN(a.mu * b.mu, 1.0 - (1.0 - a.nu) * (1.0 - b.nu))


def _subtract_quotient(a: IFN, b: IFN, slack: float = _SIMPLEX_TOL) -> IFN | None:
    """Quotient branch of a - b, or None when the guards fail.

    Boundary ties (within `slack`) go to the quotient branch; the result
    is projected back onto the simplex if the slack let it overshoot.
    """
    if not b.nu > 0:
        return None
    if a.mu < b.mu - slack or a.nu > b.nu + slack:
        return None
    if a.nu * b.hesitancy > a.hesitancy * b.nu + slack:
        return None
    # b.nu > 0 forces b.mu <= 1 - b.nu < 1, so the division is safe.
    mu = min(max((a.mu - b.mu) / (1.0 - b.mu), 0.0), 1.0)
    nu = min(max(a.nu / b.nu, 0.0), 1.0 - mu)
    return IFN(mu, nu)


def subtract(a: IFN, b: IFN) -> IFN:
    """Guarded inverse of addition; falls back to (0, 1)."""
    q = _subtract_quotient(a, b)
    return ADD_IDENTITY if q is None else q


def scalar_mul(c: float, a: IFN) -> IFN:
    """c * a = (1 - (1-mu)^c, nu^c) for c >= 0 and a <_L (1, 0)."""
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"scalar must be finite and nonnegative, got {c}")
    if not _below_mul_identity(a):
        raise ValueError(f"scalar_mul needs mu < 1 and nu > 0, got {a}")
    if c == 1.0:
        return a
    return IFN(1.0 - (1.0 - a.mu) ** c, a.nu**c)


def power(a: IFN, c: float) -> IFN:
    """a^c = (mu^c, 1 - (1-nu)^c) for c >= 0 and a >_L (0, 1)."""
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"exponent must be finite and nonnegative, got {c}")
    if not _above_add_identity(a):
        raise ValueError(f"power needs mu > 0 and nu < 1, got {a}")
    if c == 1.0:
        return a
    return IFN(a.mu**c, 1.0 - (1.0 - a.nu) ** c)


def in_addition_region(a: IFN, xi: IFN, tol: float = _SIMPLEX_TOL) -> bool:
    """True iff a decomposes as xi + beta for some IFN beta.

    Requires the subtraction a - xi to go through the quotient branch
    and the reconstruction xi + (a - xi) to reproduce a within `tol`.
    """
    beta = _subtract_quotient(a, xi)
    if beta is None:
        return False
    recon = add(xi, beta)
    return abs(recon.mu - a.mu) <= tol and abs(recon.nu - a.nu) <= tol


def _resolve_window(seq: Sequence[IFN], window: TailWindow | None) -> TailWindow:
    if window is None:
        window = TailWindow.last_half(len(seq))
    window.check_fits(len(seq), "IFN sequence")
    return window


def addition_limit_check(
    seq: Sequence[IFN],
    xi: IFN,
    eps: EpsilonIFN,
    window: TailWindow | None = None,
) -> AdditionLimitOutcome:
    """Windowed check of the subtraction-based limit notion.

    NOT_APPLICABLE if some window element is outside the addition
    region of xi; otherwise HOLDS iff (a_n - xi) <_L (eps, 1-eps)
    throughout the window.
    """
    window = _resolve_window(seq, window)
    if not all(in_addition_region(seq[n], xi) for n in window.indices()):
        return AdditionLimitOutcome.NOT_APPLICABLE
    bar_eps = eps.additive_form
    for n in window.indices():
        if not _lt_L(subtract(seq[n], xi), bar_eps):
            return AdditionLimitOutcome.FAILS
    return AdditionLimitOutcome.HOLDS


def zhangxu_limit_check(
    seq: Sequence[IFN],
    xi: IFN,
    eps: IFN,
    window: TailWindow | None = None,
) -> bool:
    """Windowed check of the total-order limit notion for one eps.

    Elements above xi must stay below xi + eps, elements below xi must
    push xi below a_n + eps; ties impose nothing.
    """
    if eps.mu == 0.0 and eps.nu == 1.0:
        raise ValueError("eps must differ from (0, 1)")
    window = _resolve_window(seq, window)
    xi_plus = add(xi, eps)
    for n in window.indices():
        c = total_order_cmp(seq[n], xi)
        if c > 0:
            if not total_order_cmp(seq[n], xi_plus) < 0:
                return False
        elif c < 0:
            if not total_order_cmp(xi, add(seq[n], eps)) < 0:
                return False
    return True


_DEFAULT_EPS_SAMPLES: tuple[IFN, ...] = (
    IFN(1e-9, 1.0 - 1e-9),
    IFN(1e-6, 1.0 - 1e-6),
    IFN(1e-3, 1.0 - 1e-3),
    IFN(0.05, 0.9),
    IFN(0.3, 0.3),
    IFN(0.5, 0.2),
)


def zhangxu_limit_check_sampled(
    seq: Sequence[IFN],
    xi: IFN,
    window: TailWindow | None = None,
    eps_samples: Sequence[IFN] = _DEFAULT_EPS_SAMPLES,
) -> bool:
    """Conjunction of the total-order check over an eps grid.

    The grid stands in for the 'any eps' quantifier and includes
    near-(0, 1) elements, which are the hard cases.
    """
    return all(zhangxu_limit_check(seq, xi, eps, window) for eps in eps_samples)


def oplus_sandwich_holds(
    seq: Sequence[IFN],
    xi: IFN,
    eps: float,
    window: TailWindow | None = None,
) -> bool:
    """Definitional additive sandwich at one eps:
    a_n <_L xi + (eps, 1-eps) and xi <_L a_n + (eps, 1-eps) on the window."""
    bar_eps = EpsilonIFN(eps).additive_form
    window = _resolve_window(seq, window)
    xi_plus = add(xi, bar_eps)
    for n in window.indices():
        a = seq[n]
        if not (_lt_L(a, xi_plus) and _lt_L(xi, add(a, bar_eps))):
            return False
    return True


def otimes_sandwich_holds(
    seq: Sequence[IFN],
    xi: IFN,
    eps: float,
    window: TailWindow | None = None,
) -> bool:
    """Definitional multiplicative sandwich at one eps:
    a_n * (1-eps, eps) <_L xi and xi * (1-eps, eps) <_L a_n."""
    bar_eps = EpsilonIFN(eps).multiplicative_form
    window = _resolve_window(seq, window)
    xi_times = multiply(xi, bar_eps)
    for n in window.indices():
        a = seq[n]
        if not (_lt_L(multiply(a, bar_eps), xi) and _lt_L(xi_times, a)):
            return False
    return True


def _component_test(
    seq: Sequence[IFN], xi: IFN, tol: float, window: TailWindow
) -> bool:
    return all(
        abs(seq[n].mu - xi.mu) <= tol and abs(seq[n].nu - xi.nu) <= tol
        for n in window.indices()
    )


def oplus_convergence_check(
    seq: Sequence[IFN],
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> bool:
    """Windowed componentwise convergence of (a_n) to xi <_L (1, 0).

    The component test (absolute tolerance on mu and nu) is the
    operative criterion; the definitional additive sandwich is evaluated
    at a matching eps as a cross-check and a disagreement is warned
    about rather than folded into the verdict.
    """
    if not _below_mul_identity(xi):
        raise ValueError(f"limit candidate must satisfy mu < 1 and nu > 0, got {xi}")
    window = _resolve_window(seq, window)
    comp = _component_test(seq, xi, tol, window)
    # eps such that component-tolerance passes force the sandwich (margin 2x).
    room = min(1.0 - xi.mu - tol, xi.nu - tol)
    if comp and room > 0:
        eps_cross = min(1.0, 2.0 * tol / room)
        if eps_cross < 1.0 and not oplus_sandwich_holds(seq, xi, eps_cross, window):
            warnings.warn(
                "component test passed but the additive sandwich failed at "
                f"eps={eps_cross}; window evidence sits on the tolerance edge",
                RuntimeWarning,
                stacklevel=2,
            )
    return comp


def otimes_convergence_check(
    seq: Sequence[IFN],
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> bool:
    """Windowed componentwise convergence of (a_n) to xi >_L (0, 1).

    Mirror of the additive check; the multiplicative sandwich is the
    cross-checked definitional form.
    """
    if not _above_add_identity(xi):
        raise ValueError(f"limit candidate must satisfy mu > 0 and nu < 1, got {xi}")
    window = _resolve_window(seq, window)
    comp = _component_test(seq, xi, tol, window)
    room = min(xi.mu - tol, 1.0 - xi.nu - tol)
    if comp and room > 0:
        eps_cross = min(1.0, 2.0 * tol / room)
        if eps_cross < 1.0 and not otimes_sandwich_holds(seq, xi, eps_cross, window):
            warnings.warn(
                "component test passed but the multiplicative sandwich failed "
                f"at eps={eps_cross}; window evidence sits on the tolerance edge",
                RuntimeWarning,
                stacklevel=2,
            )
    return comp


def _require_all_below_mul_identity(seq: Sequence[IFN]) -> None:
    for k, a in enumerate(seq):
        if not _below_mul_identity(a):
            raise ValueError(
                f"element {k} = {a} violates the additive-mean assumption "
                "(needs mu < 1 and nu > 0)"
            )


def _require_all_above_add_identity(seq: Sequence[IFN]) -> None:
    for k, a in enumerate(seq):
        if not _above_add_identity(a):
            raise ValueError(
                f"element {k} = {a} violates the geometric-mean assumption "
                "(needs mu > 0 and nu < 1)"
            )


def ifwa_means(seq: Sequence[IFN], w: WeightSequence) -> list[IFN]:
    """Running weighted averaging means t_n = (1/P_n) * sum_k p_k a_k.

    Closed form: t_n = (1 - W(1-mu)_n, W(nu)_n) with W the weighted
    geometric mean transform. Requires every element <_L (1, 0).
    """
    if len(seq) == 0:
        raise ValueError("cannot average an empty sequence")
    _require_all_below_mul_identity(seq)
    one_minus_mu = np.log([1.0 - a.mu for a in seq])
    nus = np.log([a.nu for a in seq])
    w_mu = np.exp(transform_log_values(one_minus_mu, w))
    w_nu = np.exp(transform_log_values(nus, w))
    return [IFN(1.0 - float(m), float(v)) for m, v in zip(w_mu, w_nu)]


def ifwg_means(seq: Sequence[IFN], w: WeightSequence) -> list[IFN]:
    """Running weighted geometric means h_n = (prod_k a_k^{p_k})^(1/P_n).

    Closed form: h_n = (W(mu)_n, 1 - W(1-nu)_n). Requires every element
    >_L (0, 1).
    """
    if len(seq) == 0:
        raise ValueError("cannot average an empty sequence")
    _require_all_above_add_identity(seq)
    mus = np.log([a.mu for a in seq])
    one_minus_nu = np.log([1.0 - a.nu for a in seq])
    w_mu = np.exp(transform_log_values(mus, w))
    w_nu = np.exp(transform_log_values(one_minus_nu, w))
    return [IFN(float(m), 1.0 - float(v)) for m, v in zip(w_mu, w_nu)]


def np_oplus_verdict(
    seq: Sequence[IFN],
    w: WeightSequence,
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> Verdict:
    """Windowed test of convergence of the averaging means to xi."""
    means = ifwa_means(seq, w)
    window = _resolve_window(means, window)
    passed = oplus_convergence_check(means, xi, tol, window)
    return Verdict(
        passed=passed, limit=means[window.end_index], window=window, tolerance=tol
    )


def gp_otimes_verdict(
    seq: Sequence[IFN],
    w: WeightSequence,
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> Verdict:
    """Windowed test of convergence of the geometric means to xi."""
    means = ifwg_means(seq, w)
    window = _resolve_window(means, window)
    passed = otimes_convergence_check(means, xi, tol, window)
    return Verdict(
        passed=passed, limit=means[window.end_index], window=window, tolerance=tol
    )


@dataclass(frozen=True)
class IFNTauberReport:
    """Componentwise recovery evidence for an IFN mean sequence.

    The overall verdict is the conjunction: both driving real components
    must be recoverable for the fuzzy limit to be recoverable.
    """

    mode: str
    component_labels: tuple[str, str]
    first: TauberReport
    second: TauberReport
    recovery_verdict: bool


def ifn_tauber_report(
    seq: Sequence[IFN],
    w: WeightSequence,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
    mode: str = "oplus",
    thresholds: ReportThresholds | None = None,
) -> IFNTauberReport:
    """Run the real-sequence recovery diagnostics on the component pair.

    mode "oplus" drives (1-mu_n) and (nu_n); mode "otimes" drives (mu_n)
    and (1-nu_n). The respective mean assumptions must hold at every
    index (the closed forms take logs of these components).
    """
    if mode == "oplus":
        _require_all_below_mul_identity(seq)
        labels = ("one_minus_mu", "nu")
        first = np.log([1.0 - a.mu for a in seq])
        second = np.log([a.nu for a in seq])
    elif mode == "otimes":
        _require_all_above_add_identity(seq)
        labels = ("mu", "one_minus_nu")
        first = np.log([a.mu for a in seq])
        second = np.log([1.0 - a.nu for a in seq])
    else:
        raise ValueError(f"mode must be 'oplus' or 'otimes', got {mode!r}")

    rep1 = recoverability_report(first, w, grid, window, thresholds)
    rep2 = recoverability_report(second, w, grid, window, thresholds)
    return IFNTauberReport(
        mode=mode,
        component_labels=labels,
        first=rep1,
        second=rep2,
        recovery_verdict=bool(rep1.recovery_verdict and rep2.recovery_verdict),
    )
