"""Shared test helpers: definition-level IFN mean folds, generators for
sequences those folds can evaluate without float underflow, the per-n
slow-oscillation loop kept as the oracle for the vectorized one, and the
per-element sequence generators and per-line real-file reader kept as
oracles for the array ones."""

import math
from pathlib import Path
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
from gmtauber.generators import LOG_HEADER, GeneratorError, _parse_spec
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


# Per-element generators: the straightforward form of the vectorized
# ones in gmtauber.generators, one object per index.


def _ex1(n: int, params: dict) -> LogReal:
    # Alternating exponential blow-up exp(+-(n+1)), kept in log-domain.
    return LogReal.from_log((n + 1.0) if n % 2 == 0 else -(n + 1.0))


def _ex2(n: int, params: dict) -> LogReal:
    # 2 on even indices, 1/2 on odd ones.
    return LogReal.from_log(math.log(2.0) if n % 2 == 0 else -math.log(2.0))


def _constant(n: int, params: dict) -> LogReal:
    c = params.get("c", 1.0)
    if not c > 0:
        raise GeneratorError(f"constant generator needs c > 0, got {c}")
    return LogReal.of(c)


def _exp_decay(n: int, params: dict) -> LogReal:
    # exp(c / (n+1)) -> 1; the standard slowly-settling positive sequence.
    c = params.get("c", 1.0)
    return LogReal.from_log(c / (n + 1.0))


def _linear(n: int, params: dict) -> LogReal:
    return LogReal.of(n + 1.0)


def _nonunique(n: int, params: dict) -> IFN:
    # Drifts up to (1/2, 1/3) along the constant-score line mu - nu = 1/6.
    return IFN(0.5 - 1.0 / (n + 3.0), 1.0 / 3.0 - 1.0 / (n + 3.0))


def _ex3_ifn(n: int, params: dict) -> IFN:
    # Components hop between exponent 1 and 3 of the base pair (1/2, 1/3).
    e = (-1.0) ** n + 2.0
    return IFN(1.0 - 0.5**e, (1.0 / 3.0) ** e)


def _ex4_ifn(n: int, params: dict) -> IFN:
    e = (-1.0) ** n + 2.0
    return IFN((1.0 / 9.0) ** e, 1.0 - 0.25**e)


ORACLE_GENERATORS = {
    "ex1": _ex1,
    "ex2": _ex2,
    "constant": _constant,
    "exp-decay": _exp_decay,
    "linear": _linear,
    "nonunique": _nonunique,
    "ex3-ifn": _ex3_ifn,
    "ex4-ifn": _ex4_ifn,
}


def generate_oracle(spec: str, n_max: int) -> list:
    """gmtauber.generators.generate, one per-element call per index."""
    name, params = _parse_spec(spec)
    fn = ORACLE_GENERATORS[name]
    return [fn(n, params) for n in range(n_max + 1)]


def read_real_sequence_oracle(path: str | Path) -> list[LogReal]:
    """Per-line form of gmtauber.generators.read_real_logs."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"sequence file {path} is empty")
    if lines[0] == LOG_HEADER:
        return [LogReal.from_log(float(ln)) for ln in lines[1:]]
    return [LogReal.of(float(ln)) for ln in lines]
