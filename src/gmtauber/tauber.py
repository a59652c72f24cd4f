"""Estimators for the conditions under which mean convergence of a
positive sequence can be upgraded to plain convergence.

All quantities are finite-window, finite-grid stand-ins for the
asymptotic definitions: liminf over lambda becomes a min over a
LambdaGrid branch, limsup over n becomes a max over a TailWindow. The
report keeps the raw per-lambda curves so the trend stays visible, not
just the scalar.

Windows follow the lambda-window policy in `weights`: an omitted window
is `default_report_window`, in the report and in every estimate. Each
curve is `_curve` of one `gmean` block statistic on the lambda blocks.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .mcore import LogReal, MTolerance, TailWindow, Verdict, _safe_exp, as_logs
from .weights import LambdaGrid, WeightSequence, _grid_and_window, _lambda_blocks
from .gmean import _block_deviations, _block_means, _prefix_gbar_verdict, _prefix_sums

__all__ = [
    "TauberReport",
    "ReportThresholds",
    "slow_oscillation_curve",
    "slow_oscillation_estimate",
    "tauber_condition_curve",
    "tauber_con1_estimate",
    "tauber_con2_estimate",
    "landau_estimates",
    "recoverability_report",
]


_NO_USABLE_PAIR = (
    "no (lambda, n) pair was usable: the partial sums never move "
    "across any block (degenerate weights or one-sided grid)"
)


def _branch_min(
    curve: Callable[..., dict[float, float]],
    x: np.ndarray,
    grid: LambdaGrid | None,
    window: TailWindow | None,
    empty: str,
    **kwargs,
) -> float:
    """Min over the lambdas of curve(x, grid=grid, window=window, **kwargs)
    at _grid_and_window's defaults; ValueError(empty) if it has no lambda."""
    grid, window = _grid_and_window(x.size, grid, window)
    values = curve(x, grid=grid, window=window, **kwargs).values()
    if not values:
        raise ValueError(empty)
    return min(values)


def _curve(per_block: Callable[..., np.ndarray], blocks: Iterable) -> dict[float, float]:
    """exp of the max of per_block(ns, lo, hi) for each lambda of a block
    walk (weights._lambda_blocks); a lambda whose array is empty is omitted."""
    curve: dict[float, float] = {}
    for lam, ns, lo, hi in blocks:
        values = per_block(ns, lo, hi)
        if values.size:
            curve[lam] = _safe_exp(float(values.max()))
    return curve


def slow_oscillation_curve(
    u: Sequence[LogReal] | np.ndarray,
    grid: LambdaGrid,
    window: TailWindow,
    backward: bool = False,
) -> dict[float, float]:
    """Per-lambda max over the window of the in-block ratio bound.

    Forward (lambda > 1): max_{n < m <= lambda_n} |u_m/u_n|*.
    Backward (lambda < 1): max_{lambda_n < m <= n} |u_n/u_m|*.
    Lambdas whose blocks are empty for every n in the window are omitted.
    """
    x = as_logs(u)
    branch = grid.below_one if backward else grid.above_one
    return _curve(partial(_block_deviations, x), _lambda_blocks(branch, window, x.size))


def slow_oscillation_estimate(
    u: Sequence[LogReal] | np.ndarray,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
    backward: bool = False,
) -> float:
    """Min over the lambda branch of the per-lambda block-ratio maxima.

    A value of 1 means the window evidence is consistent with the
    in-block ratios flattening out as lambda approaches 1. `window`
    defaults to default_report_window.
    """
    return _branch_min(
        slow_oscillation_curve,
        as_logs(u),
        grid,
        window,
        "every lambda in the grid had an empty block range for this window",
        backward=backward,
    )


def tauber_condition_curve(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    grid: LambdaGrid,
    window: TailWindow,
    side: int,
) -> dict[float, float]:
    """Per-lambda maxima of the normalized weighted block means.

    side 1 (lambda > 1): {|prod_{k=n+1}^{lambda_n} (u_k/u_n)^{p_k}|*}^(1/(P_{lambda_n}-P_n))
    side 2 (lambda < 1): {|prod_{k=lambda_n+1}^{n} (u_n/u_k)^{p_k}|*}^(1/(P_n-P_{lambda_n}))

    (lambda, n) pairs with equal partial sums are skipped; a lambda with
    no usable n is omitted from the curve.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    x = as_logs(u)
    branch = grid.above_one if side == 1 else grid.below_one
    means = partial(_block_means, x, _prefix_sums(x, w), w.P[: x.size])
    return _curve(means, _lambda_blocks(branch, window, x.size))


def tauber_con1_estimate(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
) -> float:
    """Forward recovery condition estimate (lambda > 1 branch); `window`
    defaults to default_report_window."""
    return _branch_min(
        tauber_condition_curve, as_logs(u), grid, window, _NO_USABLE_PAIR, w=w, side=1
    )


def tauber_con2_estimate(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
) -> float:
    """Backward recovery condition estimate (lambda < 1 branch); `window`
    defaults to default_report_window."""
    return _branch_min(
        tauber_condition_curve, as_logs(u), grid, window, _NO_USABLE_PAIR, w=w, side=2
    )


def landau_estimates(
    u: Sequence[LogReal] | np.ndarray,
    window: TailWindow,
) -> tuple[float, bool]:
    """Diagnostics for the auxiliary sequence ((u_n/u_{n-1})^n).

    Returns (bound_estimate, vanish): the max of |(u_n/u_{n-1})^n|* over
    the window, and whether that auxiliary sequence stays within
    MTolerance.default() of 1 across the window.
    """
    if window.start_index < 1:
        raise ValueError("window must start at index >= 1")
    x = as_logs(u)
    window.check_fits(x.size)
    ns = np.arange(window.start_index, window.end_index + 1, dtype=np.int64)
    aux = ns * (x[ns] - x[ns - 1])
    worst = float(np.max(np.abs(aux)))
    return _safe_exp(worst), worst < MTolerance.default().log


@dataclass(frozen=True)
class ReportThresholds:
    """Pass thresholds for the recoverability report."""

    theta: float = 1.05
    gbar_tol: MTolerance = field(default_factory=MTolerance.default)

    def __post_init__(self):
        if not self.theta >= 1:
            raise ValueError(f"theta must be >= 1, got {self.theta}")


@dataclass(frozen=True)
class TauberReport:
    """Combined windowed evidence for recoverability of a sequence limit
    from its weighted geometric means."""

    gbar_verdict: Verdict
    con1_estimate: float
    con2_estimate: float
    slow_osc_estimate: float
    slow_osc_backward_estimate: float
    landau_bound_estimate: float
    landau_vanish: bool
    recovery_verdict: bool
    theta: float
    window: TailWindow
    curves: dict[str, dict[float, float]]
    skipped_lambdas: dict[str, tuple[float, ...]]


def recoverability_report(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
    thresholds: ReportThresholds | None = None,
) -> TauberReport:
    """Assemble all estimates into one evidence report.

    recovery_verdict is true iff the mean sequence stabilizes in the
    window AND at least one of the two condition estimates stays below
    theta. The slow-oscillation and auxiliary-ratio diagnostics are
    reported alongside as the stronger sufficient-evidence flags.

    When `window` is omitted it defaults to default_report_window (the
    last half of the usable index range); an explicit window is used as
    given and must satisfy the bounds itself.

    The prefix sums S (gmean._prefix_sums) are built here and shared by
    the report's fields that read them (_prefix_fields); S is dropped
    before the rest of the report (_report), whose slow-oscillation
    curves hold its other large transient. `gmt analyze` builds its S
    itself, once per run, and shares it with its own mean verdict and
    means before it calls the same two functions.
    """
    x = as_logs(u)
    grid, window = _grid_and_window(x.size, grid, window)
    if thresholds is None:
        thresholds = ReportThresholds()
    S = _prefix_sums(x, w)
    gbar, con = _prefix_fields(x, S, w.P[: x.size], grid, window, thresholds.gbar_tol)
    del S
    return _report(x, gbar, con, grid, window, thresholds)


def _prefix_fields(
    x: np.ndarray,
    S: np.ndarray,
    P: np.ndarray,
    grid: LambdaGrid,
    window: TailWindow,
    tol: MTolerance,
) -> tuple[Verdict, dict[str, dict[float, float]]]:
    """The report's fields that read the prefix sums S and P of the logs
    x: its mean verdict, which divides only the window's log-means, and
    the con1 and con2 curves."""
    gbar = _prefix_gbar_verdict(S, P, tol, window)
    means = partial(_block_means, x, S, P)
    sides = {"con1": grid.above_one, "con2": grid.below_one}
    return gbar, {
        name: _curve(means, _lambda_blocks(lambdas, window, x.size))
        for name, lambdas in sides.items()
    }


def _report(
    x: np.ndarray,
    gbar: Verdict,
    con: dict[str, dict[float, float]],
    grid: LambdaGrid,
    window: TailWindow,
    thresholds: ReportThresholds,
) -> TauberReport:
    """recoverability_report on the logs x from its _prefix_fields: adds
    the slow-oscillation curves and the Landau diagnostics."""
    up, down = grid.above_one, grid.below_one
    branch = {"con1": up, "con2": down, "slow_osc_forward": up, "slow_osc_backward": down}
    curves = dict(con)
    curves["slow_osc_forward"] = slow_oscillation_curve(x, grid, window, backward=False)
    curves["slow_osc_backward"] = slow_oscillation_curve(x, grid, window, backward=True)
    est = {name: min(curve.values(), default=math.inf) for name, curve in curves.items()}

    landau_window = TailWindow(max(1, window.start_index), window.end_index)
    landau_bound, landau_vanish = landau_estimates(x, landau_window)

    recovery = bool(gbar.passed and min(est["con1"], est["con2"]) <= thresholds.theta)

    return TauberReport(
        gbar_verdict=gbar,
        con1_estimate=est["con1"],
        con2_estimate=est["con2"],
        slow_osc_estimate=est["slow_osc_forward"],
        slow_osc_backward_estimate=est["slow_osc_backward"],
        landau_bound_estimate=landau_bound,
        landau_vanish=landau_vanish,
        recovery_verdict=recovery,
        theta=thresholds.theta,
        window=window,
        curves=curves,
        skipped_lambdas={
            name: tuple(lam for lam in branch[name] if lam not in curve)
            for name, curve in curves.items()
        },
    )
