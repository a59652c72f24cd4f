"""Intuitionistic fuzzy numbers: membership/non-membership pairs with
probabilistic-sum addition and product multiplication, the two standard
order relations, windowed convergence checks, and the weighted
averaging/geometric mean sequences with their recovery diagnostics.

The weighted means reduce componentwise to the real-valued geometric
mean transform from `gmean`, which is also how the recovery conditions
from `tauber` are applied: to (1-mu_n, nu_n) for the additive mean and
to (mu_n, 1-nu_n) for the multiplicative one.

Bulk computations work on a sequence as one (2, N) float64 array of
mu/nu rows (`as_rows`); `IFN` objects appear only at the API edges.
Only the additive (oplus) half is written out: the multiplicative
(otimes) half is its conjugate under the swap sigma(mu, nu) = (nu, mu),
which exchanges addition with multiplication, scalar multiples with
powers and the additive with the multiplicative sandwich, and reverses
<_L. The floating-point operations are the same on both sides. Each rule
(the oplus domain, <_L, addition, scalar multiples) is written once, on
components, so that one function serves a scalar IFN and a (2, N) row
block, and the swap is passing the components in the other order.
"""

import enum
import math
import warnings
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .mcore import TailWindow, Verdict, resolve_window
from .weights import LambdaGrid, WeightSequence
from .gmean import transform_log_values
from .tauber import ReportThresholds, TauberReport, recoverability_report

__all__ = [
    "IFN",
    "IFNRows",
    "EpsilonIFN",
    "PartialOrder",
    "AdditionLimitOutcome",
    "IFNTauberReport",
    "ADD_IDENTITY",
    "MUL_IDENTITY",
    "simplex_rows",
    "as_rows",
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
    "mean_verdict",
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


def _box(mu: float, nu: float) -> IFN:
    """An IFN holding a pair that is already normalized, as it is.

    IFN() would normalize it again, and normalization is not idempotent:
    mu/s + nu/s can round above 1 once more, and a second division would
    then move the pair.
    """
    a = object.__new__(IFN)
    fields = a.__dict__  # what object.__setattr__ would write, at half the cost
    fields["mu"] = mu
    fields["nu"] = nu
    return a


def simplex_rows(rows: np.ndarray) -> np.ndarray:
    """IFN's normalization applied to every column of a (2, N) array of
    raw mu/nu rows, returned as a new float64 array.

    Each column gets the float operations of IFN.__post_init__: the
    finite and nonnegativity checks, the clamp of negative components to
    0 (which, like max(x, 0.0), keeps -0.0), the check on mu + nu, and
    the division by mu + nu where it exceeds 1. The first column that
    IFN() would reject raises IFN's own ValueError.
    """
    raw = np.asarray(rows, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] != 2:
        raise ValueError(f"IFN rows must have shape (2, N), got {raw.shape}")
    out = raw.copy()
    out[out < 0.0] = 0.0
    s = out[0] + out[1]
    bad = (
        ~np.isfinite(raw).all(axis=0)
        | (raw < -_SIMPLEX_TOL).any(axis=0)
        | (s > 1.0 + _SIMPLEX_TOL)
    )
    if bad.any():
        k = int(np.argmax(bad))
        IFN(*raw[:, k].tolist())  # raises that column's own error
    np.divide(out, s, out=out, where=s > 1.0)
    return out


class IFNRows(Sequence):
    """A read-only sequence of IFN over a (2, N) array of normalized
    mu/nu rows: element n is boxed from column n when it is read."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        rows = rows.view()
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IFNRows(self.rows[:, index])
        return _box(*self.rows[:, index].tolist())

    def __iter__(self) -> Iterator[IFN]:
        return map(_box, *self.rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"IFNRows({len(self)} pairs)"


def as_rows(seq: Sequence[IFN] | np.ndarray) -> np.ndarray:
    """The (2, N) float64 mu/nu rows of an IFN sequence, the one form the
    bulk computations work on.

    IFNRows gives its rows and a sequence of IFN is unboxed. An ndarray
    is taken as raw (mu, nu) rows: it goes through simplex_rows, as each
    pair would through IFN().
    """
    if isinstance(seq, IFNRows):
        return seq.rows
    if isinstance(seq, np.ndarray):
        return simplex_rows(seq)
    rows = np.empty((2, len(seq)))
    rows[0] = [a.mu for a in seq]
    rows[1] = [a.nu for a in seq]
    return rows


def _window_rows(seq: Sequence[IFN], window: TailWindow | None) -> np.ndarray:
    rows = as_rows(seq)
    window = resolve_window(window, rows.shape[1], "IFN sequence")
    return rows[:, window.start_index : window.end_index + 1]


def total_order_cmp(a: IFN, b: IFN) -> int:
    """Score-then-accuracy comparison; returns -1, 0 or +1.

    Score and accuracy ties are decided within _SIMPLEX_TOL so that
    decimals like 0.6 - 0.4 vs 0.5 - 0.3 compare as equal scores.
    """
    for d in (a.score - b.score, a.accuracy - b.accuracy):
        if d < -_SIMPLEX_TOL:
            return -1
        if d > _SIMPLEX_TOL:
            return 1
    return 0


# The rules below take components, floats or rows alike. The
# multiplicative duals pass them swapped, (nu, mu), and build the IFN
# from the pair swapped back, so that IFN()'s error shows the pair in
# its own order.


def _lt_L(amu, anu, bmu, bnu):
    """a <_L b: mu up and nu down, both strict."""
    return (amu < bmu) & (anu > bnu)


def _oplus_domain(mu, nu):
    """a <_L (1, 0), where the additive operations are defined; on
    (nu, mu), a >_L (0, 1), where the multiplicative ones are."""
    return (mu < 1.0) & (nu > 0.0)


def _add_pair(amu, anu, bmu, bnu):
    return 1.0 - (1.0 - amu) * (1.0 - bmu), anu * bnu


def partial_order_cmp(a: IFN, b: IFN) -> PartialOrder:
    """Componentwise order: mu up and nu down, both strict."""
    if a.mu == b.mu and a.nu == b.nu:
        return PartialOrder.EQUAL
    if _lt_L(b.mu, b.nu, a.mu, a.nu):
        return PartialOrder.GREATER_L
    if _lt_L(a.mu, a.nu, b.mu, b.nu):
        return PartialOrder.LESS_L
    return PartialOrder.INCOMPARABLE


def add(a: IFN, b: IFN) -> IFN:
    """Probabilistic sum on mu, product on nu; identity (0, 1)."""
    return IFN(*_add_pair(a.mu, a.nu, b.mu, b.nu))


def multiply(a: IFN, b: IFN) -> IFN:
    """Product on mu, probabilistic sum on nu; identity (1, 0)."""
    nu, mu = _add_pair(a.nu, a.mu, b.nu, b.mu)
    return IFN(mu, nu)


def _subtract_quotient(a: IFN, b: IFN) -> IFN | None:
    """Quotient branch of a - b, or None when the guards fail.

    Boundary ties (within _SIMPLEX_TOL) go to the quotient branch; the
    result is projected back onto the simplex if it overshoots.
    """
    if not b.nu > 0:
        return None
    if a.mu < b.mu - _SIMPLEX_TOL or a.nu > b.nu + _SIMPLEX_TOL:
        return None
    if a.nu * b.hesitancy > a.hesitancy * b.nu + _SIMPLEX_TOL:
        return None
    # b.nu > 0 forces b.mu <= 1 - b.nu < 1, so the division is safe.
    mu = min(max((a.mu - b.mu) / (1.0 - b.mu), 0.0), 1.0)
    nu = min(max(a.nu / b.nu, 0.0), 1.0 - mu)
    return IFN(mu, nu)


def subtract(a: IFN, b: IFN) -> IFN:
    """Guarded inverse of addition; falls back to (0, 1)."""
    q = _subtract_quotient(a, b)
    return ADD_IDENTITY if q is None else q


def _check_exponent(c: float, what: str) -> None:
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"{what} must be finite and nonnegative, got {c}")


def _scalar_mul_pair(c: float, mu: float, nu: float) -> tuple[float, float]:
    # nu^c <= (1-mu)^c in exact arithmetic; the min keeps it so when
    # nu^c rounds above, which would leave the simplex.
    keep = (1.0 - mu) ** c
    return 1.0 - keep, min(nu**c, keep)


def scalar_mul(c: float, a: IFN) -> IFN:
    """c * a = (1 - (1-mu)^c, nu^c) for c >= 0 and a <_L (1, 0)."""
    _check_exponent(c, "scalar")
    if not _oplus_domain(a.mu, a.nu):
        raise ValueError(f"scalar_mul needs mu < 1 and nu > 0, got {a}")
    if c == 1.0:
        return a
    return IFN(*_scalar_mul_pair(c, a.mu, a.nu))


def power(a: IFN, c: float) -> IFN:
    """a^c = (mu^c, 1 - (1-nu)^c) for c >= 0 and a >_L (0, 1)."""
    _check_exponent(c, "exponent")
    if not _oplus_domain(a.nu, a.mu):
        raise ValueError(f"power needs mu > 0 and nu < 1, got {a}")
    if c == 1.0:
        return a
    nu, mu = _scalar_mul_pair(c, a.nu, a.mu)
    return IFN(mu, nu)


def _region_quotient(a: IFN, xi: IFN) -> IFN | None:
    """a - xi if a lies in the addition region of xi, else None: the
    subtraction must go through the quotient branch and the
    reconstruction xi + (a - xi) must reproduce a within _SIMPLEX_TOL."""
    beta = _subtract_quotient(a, xi)
    if beta is None:
        return None
    recon = add(xi, beta)
    if abs(recon.mu - a.mu) <= _SIMPLEX_TOL and abs(recon.nu - a.nu) <= _SIMPLEX_TOL:
        return beta
    return None


def in_addition_region(a: IFN, xi: IFN) -> bool:
    """True iff a decomposes as xi + beta for some IFN beta (see
    _region_quotient for the test)."""
    return _region_quotient(a, xi) is not None


def addition_limit_check(
    seq: Sequence[IFN] | np.ndarray,
    xi: IFN,
    eps: EpsilonIFN,
    window: TailWindow | None = None,
) -> AdditionLimitOutcome:
    """Windowed check of the subtraction-based limit notion.

    NOT_APPLICABLE if some window element is outside the addition
    region of xi; otherwise HOLDS iff (a_n - xi) <_L (eps, 1-eps)
    throughout the window.
    """
    quotients = [_region_quotient(a, xi) for a in IFNRows(_window_rows(seq, window))]
    if any(q is None for q in quotients):
        return AdditionLimitOutcome.NOT_APPLICABLE
    bar_eps = eps.additive_form
    if all(_lt_L(q.mu, q.nu, bar_eps.mu, bar_eps.nu) for q in quotients):
        return AdditionLimitOutcome.HOLDS
    return AdditionLimitOutcome.FAILS


def zhangxu_limit_check(
    seq: Sequence[IFN] | np.ndarray,
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
    xi_plus = add(xi, eps)
    for a in IFNRows(_window_rows(seq, window)):
        c = total_order_cmp(a, xi)
        if c > 0:
            if not total_order_cmp(a, xi_plus) < 0:
                return False
        elif c < 0:
            if not total_order_cmp(xi, add(a, eps)) < 0:
                return False
    return True


_EPS_SAMPLES: tuple[IFN, ...] = (
    IFN(1e-9, 1.0 - 1e-9),
    IFN(1e-6, 1.0 - 1e-6),
    IFN(1e-3, 1.0 - 1e-3),
    IFN(0.05, 0.9),
    IFN(0.3, 0.3),
    IFN(0.5, 0.2),
)


def zhangxu_limit_check_sampled(
    seq: Sequence[IFN] | np.ndarray,
    xi: IFN,
    window: TailWindow | None = None,
) -> bool:
    """Conjunction of the total-order check over the eps grid _EPS_SAMPLES.

    The grid stands in for the 'any eps' quantifier and includes
    near-(0, 1) elements, which are the hard cases.
    """
    rows = IFNRows(as_rows(seq))
    return all(zhangxu_limit_check(rows, xi, eps, window) for eps in _EPS_SAMPLES)


def _oplus_sandwich(block: np.ndarray, xmu: float, xnu: float, bar_eps: IFN) -> bool:
    """a <_L xi + bar_eps and xi <_L a + bar_eps for every column a of
    `block`, with xi = (xmu, xnu); both sums are `add`'s."""
    mu, nu = block
    xi_plus = IFN(*_add_pair(xmu, xnu, bar_eps.mu, bar_eps.nu))
    a_plus = simplex_rows(np.stack(_add_pair(mu, nu, bar_eps.mu, bar_eps.nu)))
    return bool(
        np.all(_lt_L(mu, nu, xi_plus.mu, xi_plus.nu) & _lt_L(xmu, xnu, *a_plus))
    )


def oplus_sandwich_holds(
    seq: Sequence[IFN],
    xi: IFN,
    eps: float,
    window: TailWindow | None = None,
) -> bool:
    """Definitional additive sandwich at one eps:
    a_n <_L xi + (eps, 1-eps) and xi <_L a_n + (eps, 1-eps) on the window."""
    bar_eps = EpsilonIFN(eps).additive_form
    return _oplus_sandwich(_window_rows(seq, window), xi.mu, xi.nu, bar_eps)


def otimes_sandwich_holds(
    seq: Sequence[IFN],
    xi: IFN,
    eps: float,
    window: TailWindow | None = None,
) -> bool:
    """Definitional multiplicative sandwich at one eps:
    a_n * (1-eps, eps) <_L xi and xi * (1-eps, eps) <_L a_n; the
    additive sandwich of (sigma a_n) around sigma xi."""
    bar_eps = EpsilonIFN(eps).additive_form
    return _oplus_sandwich(_window_rows(seq, window)[::-1], xi.nu, xi.mu, bar_eps)


def _oplus_converges(
    block: np.ndarray, xmu: float, xnu: float, tol: float, sandwich: str
) -> bool:
    """Component test of the window columns against xi = (xmu, xnu)
    <_L (1, 0), with the additive sandwich as a cross-check (`sandwich`
    names it in the warning)."""
    mu, nu = block
    comp = bool(np.all((np.abs(mu - xmu) <= tol) & (np.abs(nu - xnu) <= tol)))
    # eps such that component-tolerance passes force the sandwich (margin 2x).
    room = min(1.0 - xmu - tol, xnu - tol)
    if comp and room > 0:
        eps_cross = min(1.0, 2.0 * tol / room)
        if eps_cross < 1.0 and not _oplus_sandwich(
            block, xmu, xnu, EpsilonIFN(eps_cross).additive_form
        ):
            warnings.warn(
                f"component test passed but the {sandwich} sandwich failed at "
                f"eps={eps_cross}; window evidence sits on the tolerance edge",
                RuntimeWarning,
                stacklevel=3,
            )
    return comp


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
    if not _oplus_domain(xi.mu, xi.nu):
        raise ValueError(f"limit candidate must satisfy mu < 1 and nu > 0, got {xi}")
    return _oplus_converges(_window_rows(seq, window), xi.mu, xi.nu, tol, "additive")


def otimes_convergence_check(
    seq: Sequence[IFN],
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> bool:
    """Windowed componentwise convergence of (a_n) to xi >_L (0, 1).

    The additive check on (sigma a_n) and sigma xi; its sandwich
    cross-check is the multiplicative sandwich.
    """
    if not _oplus_domain(xi.nu, xi.mu):
        raise ValueError(f"limit candidate must satisfy mu > 0 and nu < 1, got {xi}")
    block = _window_rows(seq, window)[::-1]
    return _oplus_converges(block, xi.nu, xi.mu, tol, "multiplicative")


def _oplus_rows(rows: np.ndarray, swap: bool) -> np.ndarray:
    """The (mu, nu) rows, or when `swap` those of (sigma a_n), whose
    logs log(1 - mu) and log(nu) are the real sequences behind the
    additive mean. Every element must lie <_L (1, 0) after the swap; the
    first that does not is named unswapped."""
    mu, nu = oriented = rows[::-1] if swap else rows
    outside = ~_oplus_domain(mu, nu)
    if outside.any():
        k = int(np.argmax(outside))
        mean, need = (
            ("geometric", "mu > 0 and nu < 1") if swap else ("additive", "mu < 1 and nu > 0")
        )
        raise ValueError(
            f"element {k} = {_box(*rows[:, k].tolist())} violates the "
            f"{mean}-mean assumption (needs {need})"
        )
    return oriented


def _oplus_means(seq: Sequence[IFN], w: WeightSequence, swap: bool) -> IFNRows:
    """t_n = (1 - W(1-mu)_n, W(nu)_n) of the rows, or of (sigma a_n)
    swapped back when `swap`; normalized in the caller's (mu, nu) order,
    so that an IFN error shows the pair unswapped. W(nu) is clamped to
    W(1-mu), which it cannot exceed in exact arithmetic, so that the
    means stay on the simplex when rounding says otherwise."""
    rows = as_rows(seq)
    if rows.shape[1] == 0:
        raise ValueError("cannot average an empty sequence")
    mu, nu = _oplus_rows(rows, swap)
    means = np.stack([np.log(1.0 - mu), np.log(nu)])
    for row in means:
        np.exp(transform_log_values(row, w), out=row)
    np.minimum(means[1], means[0], out=means[1])
    np.subtract(1.0, means[0], out=means[0])
    return IFNRows(simplex_rows(means[::-1] if swap else means))


def ifwa_means(seq: Sequence[IFN], w: WeightSequence) -> IFNRows:
    """Running weighted averaging means t_n = (1/P_n) * sum_k p_k a_k.

    Closed form: t_n = (1 - W(1-mu)_n, W(nu)_n) with W the weighted
    geometric mean transform. Requires every element <_L (1, 0).
    """
    return _oplus_means(seq, w, swap=False)


def ifwg_means(seq: Sequence[IFN], w: WeightSequence) -> IFNRows:
    """Running weighted geometric means h_n = (prod_k a_k^{p_k})^(1/P_n).

    Closed form: h_n = (W(mu)_n, 1 - W(1-nu)_n), the averaging means of
    (sigma a_k) swapped back. Requires every element >_L (0, 1).
    """
    return _oplus_means(seq, w, swap=True)


def mean_verdict(
    means: Sequence[IFN] | np.ndarray,
    check: Callable[..., bool],
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> Verdict:
    """Windowed test of convergence of precomputed means to xi, by
    `check` (oplus_convergence_check or otimes_convergence_check)."""
    means = IFNRows(as_rows(means))
    window = resolve_window(window, len(means), "IFN sequence")
    passed = check(means, xi, tol, window)
    return Verdict(
        passed=passed, limit=means[window.end_index], window=window, tolerance=tol
    )


def np_oplus_verdict(
    seq: Sequence[IFN],
    w: WeightSequence,
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> Verdict:
    """Windowed test of convergence of the averaging means to xi."""
    return mean_verdict(ifwa_means(seq, w), oplus_convergence_check, xi, tol, window)


def gp_otimes_verdict(
    seq: Sequence[IFN],
    w: WeightSequence,
    xi: IFN,
    tol: float = 1e-3,
    window: TailWindow | None = None,
) -> Verdict:
    """Windowed test of convergence of the geometric means to xi."""
    return mean_verdict(ifwg_means(seq, w), otimes_convergence_check, xi, tol, window)


@dataclass(frozen=True)
class IFNTauberReport:
    """Componentwise recovery evidence for an IFN mean sequence: one
    report per driving real component, keyed by its label in label order.

    The overall verdict is the conjunction: both driving real components
    must be recoverable for the fuzzy limit to be recoverable.
    """

    mode: str
    component_labels: tuple[str, str]
    components: dict[str, TauberReport]
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
    and (1-nu_n), the oplus pair of (sigma a_n) in reverse order. The
    respective mean assumptions must hold at every index (the closed
    forms take logs of these components).
    """
    rows = as_rows(seq)
    if mode not in ("oplus", "otimes"):
        raise ValueError(f"mode must be 'oplus' or 'otimes', got {mode!r}")
    swap = mode == "otimes"
    mu, nu = _oplus_rows(rows, swap)
    # Each component's log is formed just before its report and freed
    # with it, so one component log and one S are alive at a time.
    logs = (lambda: np.log(1.0 - mu), lambda: np.log(nu))
    labels = ("mu", "one_minus_nu") if swap else ("one_minus_mu", "nu")
    components = {
        label: recoverability_report(log(), w, grid, window, thresholds)
        for label, log in zip(labels, logs[::-1] if swap else logs)
    }
    return IFNTauberReport(
        mode=mode,
        component_labels=labels,
        components=components,
        recovery_verdict=all(rep.recovery_verdict for rep in components.values()),
    )
