"""Weight sequences p_n, their partial sums P_n, the lambda-index map,
and the one lambda-window policy: `usable_end`, `default_report_window`
and the block walk `_lambda_blocks`, which every per-lambda estimator
uses and which alone orients each block from lambda's side of 1.

Also hosts an empirical membership diagnostic for the class of weights
whose partial-sum ratios P_{lambda_n}/P_n stay bounded away from 1 for
every lambda != 1 (the hypothesis under which the recovery conditions
in `tauber` are necessary and sufficient).
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .mcore import TailWindow

__all__ = [
    "WeightSequence",
    "LambdaGrid",
    "SvaPlusEstimate",
    "lambda_index",
    "partial_sum",
    "sva_plus_estimate",
]


# Length of the longdouble buffer that P is accumulated through.
P_CHUNK = 1 << 16

# The SVA+ verdict needs every per-lambda estimate above this floor.
SVA_FLOOR = 1e-3


def _partial_sums(p: np.ndarray) -> np.ndarray:
    """np.cumsum(p, dtype=np.longdouble) rounded to float64, through one
    chunk-long longdouble buffer instead of a full-length one. Each
    chunk's buffer starts with the longdouble total so far, so every
    addition is the one the full cumsum makes."""
    P = np.empty_like(p)
    buf = np.zeros(min(p.size, P_CHUNK) + 1, dtype=np.longdouble)
    for start in range(0, p.size, P_CHUNK):
        seg = buf[: min(P_CHUNK, p.size - start) + 1]
        seg[1:] = p[start : start + P_CHUNK]
        np.cumsum(seg, out=seg)
        P[start : start + seg.size - 1] = seg[1:]
        buf[0] = seg[-1]
    return P


def lambda_index(lam: float, n: int) -> int:
    """floor(lambda * n) for lambda > 0."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return math.floor(lam * n)


class WeightSequence:
    """Nonnegative weights p_n with p_0 > 0 and cumulative sums P_n.

    P is accumulated in extended precision so that long prefixes agree
    with fresh summation to near machine accuracy.
    """

    def __init__(self, p: Iterable[float]):
        p_arr = np.asarray(list(p) if not isinstance(p, np.ndarray) else p, dtype=np.float64)
        if p_arr.ndim != 1 or p_arr.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(p_arr)):
            raise ValueError("weights must be finite")
        if np.any(p_arr < 0):
            raise ValueError("weights must be nonnegative")
        if not p_arr[0] > 0:
            raise ValueError("the first weight p_0 must be strictly positive")
        self.p = p_arr
        with np.errstate(over="ignore"):  # an overflow is raised below
            self.P = _partial_sums(p_arr)
        if not math.isfinite(self.P[-1]):  # P never decreases: the last is the largest
            first = np.searchsorted(self.P, np.inf)
            raise ValueError(f"the weights' partial sums overflow from index {first}")

    def __len__(self) -> int:
        return len(self.p)

    def __repr__(self) -> str:
        return f"WeightSequence(n={len(self.p)}, P_end={self.P[-1]!r})"

    # Families constructible by name from the CLI.
    @classmethod
    def ones(cls, length: int) -> "WeightSequence":
        return cls(np.ones(length))

    @classmethod
    def harmonic(cls, length: int) -> "WeightSequence":
        """p_n = 1/(n+1)."""
        p = np.arange(1, length + 1, dtype=np.float64)
        np.divide(1.0, p, out=p)
        return cls(p)

    @classmethod
    def alternating(cls, length: int, a: float, b: float) -> "WeightSequence":
        """p = (a, b, a, b, ...)."""
        p = np.empty(length, dtype=np.float64)
        p[0::2] = a
        p[1::2] = b
        return cls(p)

    @classmethod
    def from_file(cls, path: str | Path) -> "WeightSequence":
        """One decimal weight per line, through the sequence-file reader."""
        from .generators import _read_table  # generators imports this module through ifn

        return cls(_read_table(Path(path).read_text(), 1, path)[0])


def partial_sum(w: WeightSequence, n: int) -> float:
    """P_n = sum of p_0..p_n."""
    if n < 0 or n >= len(w):
        raise IndexError(f"index {n} out of range for weights of length {len(w)}")
    return float(w.P[n])


@dataclass(frozen=True)
class LambdaGrid:
    """Finite sample of lambda values, all positive and != 1.

    The two branches approach 1 from above and from below; estimators
    take a min over a branch as the finite stand-in for liminf.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("lambda grid must be non-empty")
        for lam in self.values:
            if not (lam > 0 and math.isfinite(lam)):
                raise ValueError(f"lambda values must be positive reals, got {lam}")
            if lam == 1.0:
                raise ValueError("lambda = 1 is not allowed in the grid")
        dupes = len(self.values) - len(set(self.values))
        if dupes:
            raise ValueError("lambda grid contains duplicate values")

    @classmethod
    def default(cls) -> "LambdaGrid":
        """{1 +- 2^-j : j = 1..6} plus {1/2, 2} (0.5 deduplicated)."""
        vals = sorted(
            {1.0 + 2.0**-j for j in range(1, 7)}
            | {1.0 - 2.0**-j for j in range(1, 7)}
            | {0.5, 2.0}
        )
        return cls(tuple(vals))

    @classmethod
    def of(cls, values: Iterable[float]) -> "LambdaGrid":
        return cls(tuple(float(v) for v in values))

    @property
    def above_one(self) -> tuple[float, ...]:
        """Branch lambda > 1, descending toward 1."""
        return tuple(sorted((v for v in self.values if v > 1), reverse=True))

    @property
    def below_one(self) -> tuple[float, ...]:
        """Branch lambda < 1, ascending toward 1."""
        return tuple(sorted(v for v in self.values if v < 1))

    @property
    def max_lambda(self) -> float:
        return max(self.values)


def usable_end(length: int, grid: LambdaGrid) -> int:
    """End of the usable index range: (length - 1) / max(lambda), so that
    lambda_n = floor(lambda * n) stays inside the sequence."""
    # min before int(): (length-1)/lambda overflows to inf for tiny lambdas.
    return int(min(length - 1, (length - 1) / grid.max_lambda))


def default_report_window(length: int, grid: LambdaGrid) -> TailWindow:
    """Last half of the index range that keeps every lambda_n in bounds."""
    end = usable_end(length, grid)
    if end < 1:
        raise ValueError(
            f"sequence of length {length} is too short for lambda grid "
            f"max {grid.max_lambda}"
        )
    return TailWindow(max(1, end // 2), end)


def _lambda_blocks(
    lambdas: tuple[float, ...], window: TailWindow, length: int
) -> Iterator[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """(lambda, ns, lo, hi) per lambda: ns the window's indices, (lo, hi]
    each n's block, (n, lambda_n] if lambda > 1 and (lambda_n, n] if not,
    with lambda_n = floor(lambda * n). Raises before yielding if the window
    or the largest lambda's last block leaves a sequence of `length`."""
    window.check_fits(length)
    lam = max(lambdas, default=0.0)
    top = math.floor(lam * window.end_index)
    if top >= length:
        raise ValueError(
            f"lambda index floor({lam} * {window.end_index}) = {top} exceeds "
            f"the materialized sequence length {length}"
        )
    ns = np.arange(window.start_index, window.end_index + 1, dtype=np.int64)
    for lam in lambdas:
        lns = np.floor(lam * ns).astype(np.int64)
        yield (lam, ns, ns, lns) if lam > 1 else (lam, ns, lns, ns)


@dataclass(frozen=True)
class SvaPlusEstimate:
    """Per-lambda infima of |P_{lambda_n}/P_n - 1| over a window.

    The verdict is finite-window evidence for membership, not a proof:
    true iff every per-lambda estimate exceeds the floor.
    """

    per_lambda: dict[float, float]
    floor: float
    verdict: bool
    window: TailWindow


def sva_plus_estimate(
    w: WeightSequence,
    grid: LambdaGrid | None = None,
    window: TailWindow | None = None,
) -> SvaPlusEstimate:
    """Estimate how far the partial-sum ratios stay from 1 per lambda;
    `window` defaults to default_report_window."""
    if grid is None:
        grid = LambdaGrid.default()
    if window is None:
        window = default_report_window(len(w), grid)
    window.check_fits(len(w), "weights")
    # lambda_n is the end of n's block that is not n: lo + hi - n.
    per_lambda = {
        lam: float(np.min(np.abs(w.P[lo + hi - ns] / w.P[ns] - 1.0)))
        for lam, ns, lo, hi in _lambda_blocks(grid.values, window, len(w))
    }
    verdict = all(est > SVA_FLOOR for est in per_lambda.values())
    return SvaPlusEstimate(per_lambda, SVA_FLOOR, verdict, window)
