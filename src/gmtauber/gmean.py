"""The weighted geometric mean transform, computed stably in log-domain.

For positive u_k and weights p_k the transform is
w_n = (prod_{k<=n} u_k^{p_k})^(1/P_n), i.e. log w_n is the p-weighted
running average of log u_k. Cancellation-heavy inputs (alternating logs
of size n) are the normal case here, so prefix sums are carried in
extended precision.

Every quantity of a run reduces to the prefix sums S_n = sum p_k log u_k
and P_n, whose one extended-precision rule lives here. _prefix_sums
builds S, in place, as the one full-length longdouble array; P stays the
float64 WeightSequence.P and is widened to longdouble only where it meets
S: in _log_means, the buffered division that gives the float64
log-means, and in _block_means, for tauber's condition curves (beside
it, _block_deviations serves the slow-oscillation ones).
"""

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .mcore import (
    LogReal,
    MTolerance,
    TailWindow,
    Verdict,
    as_logs,
    resolve_window,
    star_converges_to,
)
from .weights import WeightSequence, lambda_index

__all__ = [
    "weighted_geo_means",
    "transform_log_values",
    "gbar_limit_estimate",
    "gbar_verdict",
    "decomposition_identity_check",
]


def _prefix_sums(log_u: np.ndarray, w: WeightSequence) -> np.ndarray:
    """S_n = sum_{k<=n} p_k log u_k in longdouble, built in place (p
    widened, times the float64 logs, cumsum into itself): 16 bytes per
    element and no other full-length temporary."""
    n = log_u.size
    if len(w) < n:
        raise ValueError(
            f"weights of length {len(w)} are shorter than the sequence ({n})"
        )
    S = w.p[:n].astype(np.longdouble)
    S *= log_u
    np.cumsum(S, out=S)
    return S


def _log_means(S: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The float64 log-means S_n / P_n, divided in longdouble through
    numpy's buffered loop: P is widened a buffer at a time, and no
    full-length longdouble quotient exists."""
    means = np.empty(S.size, dtype=np.float64)
    np.divide(S, P, out=means, dtype=np.longdouble)
    return means


def _range_reduce(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, op: np.ufunc
) -> np.ndarray:
    """op.reduce(values[lo[i] : hi[i] + 1]) for every i (needs lo <= hi).

    Sparse table built one level at a time: level k holds op over every
    run of 2^k values, and answers the queries whose length lies in
    [2^k, 2^(k+1)) with two overlapping runs before the next level
    replaces it. At most two levels are alive, so time is
    O(len(values) * log(max length) + len(lo)) and extra memory
    O(len(values) + len(lo)). op must be idempotent (max or min), which
    makes the answers exact. The queries' levels must never decrease, as
    along one lambda's blocks, so that each level's queries are one
    contiguous run; ValueError if they do.
    """
    _, exp = np.frexp(hi - lo + 1)
    level = exp - 1  # floor(log2(length)), exact for lengths below 2^53
    if np.any(level[1:] < level[:-1]):
        raise ValueError(
            "range queries need nondecreasing floor(log2(length)); "
            "a length dropped to a lower power of two"
        )
    bounds = np.searchsorted(level, np.arange(int(level[-1]) + 2))
    out = np.empty(lo.size, dtype=values.dtype)
    table = values
    for k in range(bounds.size - 1):
        if k:
            half = 1 << (k - 1)
            table = op(table[:-half], table[half:])
        q = slice(bounds[k], bounds[k + 1])
        out[q] = op(table[lo[q]], table[hi[q] - (1 << k) + 1])
    return out


def _block_means(
    x: np.ndarray, S: np.ndarray, P: np.ndarray, ns: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """|sum_{k=lo+1}^{hi} p_k (x_k - x_n)| / (P_hi - P_lo) at the blocks
    (lo, hi] of weights._lambda_blocks whose partial sums move, for tauber's
    condition curves (|.| drops the sign flip of lambda < 1 blocks exactly)."""
    dP = P[hi].astype(np.longdouble) - P[lo]
    numer = np.abs((S[hi] - S[lo]) - dP * x[ns])
    valid = dP > 0
    return numer[valid] / dP[valid]


def _block_deviations(
    x: np.ndarray, ns: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """max_{lo < m <= hi} |x_m - x_n| at the non-empty blocks (lo, hi] of
    weights._lambda_blocks, for tauber's slow-oscillation curves: range
    queries (_range_reduce) over the span the blocks cover, in
    O(S log B + W) for S indices, blocks of at most B and W blocks."""
    keep = hi > lo
    if not keep.any():
        return x[:0]
    xn, lo, hi = x[ns[keep]], lo[keep] + 1, hi[keep]
    base = int(lo[0])  # floor(fl(lambda * n)) never decreases in n
    span = x[base : int(hi[-1]) + 1]
    lo -= base
    hi -= base
    return np.maximum(
        _range_reduce(span, lo, hi, np.maximum) - xn,
        xn - _range_reduce(span, lo, hi, np.minimum),
    )


def transform_log_values(log_u: np.ndarray, w: WeightSequence) -> np.ndarray:
    """log w_n for every prefix, from raw log values (array-level view)."""
    log_u = np.asarray(log_u, dtype=np.float64)
    if log_u.size == 0:
        raise ValueError("cannot transform an empty sequence")
    return _log_means(_prefix_sums(log_u, w), w.P[: log_u.size])


def weighted_geo_means(
    u: Sequence[LogReal] | np.ndarray, w: WeightSequence
) -> list[LogReal]:
    """The mean sequence (w_n); indices with p_k = 0 contribute nothing."""
    logs = transform_log_values(as_logs(u), w)
    return [LogReal(lv) for lv in logs.tolist()]


def gbar_verdict(
    log_means: np.ndarray,
    tol: MTolerance | None = None,
    window: TailWindow | None = None,
) -> Verdict:
    """Stability verdict on an array of log-means (transform_log_values).

    The estimate is the mean at the window end; the verdict is true iff
    every mean in the window stays within `tol` of it (multiplicatively).
    """
    if tol is None:
        tol = MTolerance.default()
    window = resolve_window(window, len(log_means))
    estimate = LogReal(float(log_means[window.end_index]))
    passed = star_converges_to(log_means, estimate, tol, window)
    return Verdict(passed=passed, limit=estimate, window=window, tolerance=tol.value)


def _prefix_gbar_verdict(
    S: np.ndarray, P: np.ndarray, tol: MTolerance, window: TailWindow
) -> Verdict:
    """gbar_verdict on prefix sums, dividing only the window's log-means
    (as _log_means does), so no full-length means array is built."""
    window.check_fits(S.size)
    lo, hi = window.start_index, window.end_index + 1
    block = _log_means(S[lo:hi], P[lo:hi])
    return replace(gbar_verdict(block, tol, TailWindow(0, hi - lo - 1)), window=window)


def gbar_limit_estimate(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    tol: MTolerance | None = None,
    window: TailWindow | None = None,
) -> Verdict:
    """Estimate the transform's limit from the window and test stability
    (see gbar_verdict)."""
    return gbar_verdict(transform_log_values(as_logs(u), w), tol, window)


def decomposition_identity_check(
    u: Sequence[LogReal] | np.ndarray,
    w: WeightSequence,
    lam: float,
    n: int,
) -> LogReal:
    """Evaluate both sides of the block decomposition of u_n/w_n.

    For lambda > 1 (requires P_{lambda_n} > P_n):
        u_n/w_n = (w_{lambda_n}/w_n)^(P_{lambda_n}/(P_{lambda_n}-P_n))
                  / {prod_{k=n+1}^{lambda_n} (u_k/u_n)^{p_k}}^(1/(P_{lambda_n}-P_n))
    and the mirrored identity for 0 < lambda < 1 (requires P_n > P_{lambda_n}).

    Returns the multiplicative distance between the two sides; it should
    be 1 up to floating slack whenever the preconditions hold.
    """
    if lam == 1.0:
        raise ValueError("lambda must differ from 1")
    ln = lambda_index(lam, n)
    hi = max(n, ln)
    if hi >= len(u):
        raise IndexError(
            f"identity at (lambda={lam}, n={n}) needs index {hi}, "
            f"sequence has length {len(u)}"
        )
    logs = as_logs(u[: hi + 1])
    means = transform_log_values(logs, w)
    P = w.P
    p = w.p
    # The lambda < 1 identity is the lambda > 1 one on the block
    # (lo, hi] = (lambda_n, n] with both differences negated, which
    # rounding leaves exact: one formula on (lo, hi) serves both.
    lo, need = (n, "P_lambda_n > P_n") if lam > 1 else (ln, "P_n > P_lambda_n")
    if not P[hi] > P[lo]:
        raise ValueError(f"precondition {need} violated at (lambda={lam}, n={n})")
    dP = P[hi] - P[lo]
    block = math.fsum(p[k] * (logs[k] - logs[n]) for k in range(lo + 1, hi + 1))
    rhs = (P[ln] / dP) * (means[hi] - means[lo]) - block / dP
    return LogReal(abs((logs[n] - means[n]) - rhs))
