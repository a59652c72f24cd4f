"""Shared test helpers: definition-level IFN mean folds, generators for
sequences those folds can evaluate without float underflow, and the
per-n slow-oscillation loop kept as the oracle for the vectorized one."""

import math
from typing import Sequence

from gmtauber.ifn import (
    ADD_IDENTITY,
    MUL_IDENTITY,
    IFN,
    add,
    multiply,
    power,
    scalar_mul,
)
from gmtauber.mcore import LogReal, TailWindow, log_array
from gmtauber.tauber import _check_lambda_bounds, _safe_exp
from gmtauber.weights import LambdaGrid


def fold_ifwa(seq, p_values, n):
    """Oracle for the averaging mean: scalar multiples joined by addition."""
    total = ADD_IDENTITY
    for a, pk in zip(seq[: n + 1], p_values[: n + 1]):
        total = add(total, scalar_mul(pk, a))
    return scalar_mul(1.0 / math.fsum(p_values[: n + 1]), total)


def fold_ifwg(seq, p_values, n):
    """Oracle for the geometric mean: powers joined by multiplication."""
    total = MUL_IDENTITY
    for a, pk in zip(seq[: n + 1], p_values[: n + 1]):
        total = multiply(total, power(a, pk))
    return power(total, 1.0 / math.fsum(p_values[: n + 1]))


def random_fold_sequence(rng) -> tuple[list[IFN], list[float]]:
    """Sequences the definition-level folds can represent in floats.

    The fold carries mu through 1 - mu (dually nu through 1 - nu), so
    the running products (1-mu_k)^{p_k} must stay well above the ulp of
    1.0; the component amplitude shrinks with the sequence length to
    keep the total log-mass of the products bounded.
    """
    length = int(rng.integers(1, 51))
    cap = min(0.9, 1.0 - math.exp(-10.0 / (1.5 * length)))
    seq = []
    for _ in range(length):
        mu = rng.uniform(0.02, cap)
        nu = rng.uniform(0.02, min(cap, 1.0 - mu - 0.01))
        seq.append(IFN(mu, nu))
    p = [float(rng.uniform(0.2, 1.5))] + [
        float(rng.uniform(0.05, 1.5)) for _ in range(length - 1)
    ]
    return seq, p


def slow_oscillation_curve_oracle(
    u: Sequence[LogReal],
    grid: LambdaGrid,
    window: TailWindow,
    backward: bool = False,
) -> dict[float, float]:
    """Straightforward form of gmtauber.tauber.slow_oscillation_curve:
    every block extremum is recomputed from scratch, O(W * B) per lambda."""
    window.check_fits(len(u))
    x = log_array(u)
    branch = grid.below_one if backward else grid.above_one
    curve: dict[float, float] = {}
    for lam in branch:
        if not backward:
            _check_lambda_bounds(lam, window, len(u))
        worst = -math.inf
        for n in window.indices():
            ln = math.floor(lam * n)
            lo, hi = (ln, n) if backward else (n, ln)
            if hi <= lo:
                continue
            block = x[lo + 1 : hi + 1]
            dev = max(block.max() - x[n], x[n] - block.min())
            if dev > worst:
                worst = dev
        if worst > -math.inf:
            curve[lam] = _safe_exp(worst)
    return curve
