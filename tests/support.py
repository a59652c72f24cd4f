"""Shared test helpers: definition-level IFN mean folds, generators for
sequences those folds can evaluate without float underflow, the per-n
slow-oscillation loop kept as the oracle for the vectorized one, the
per-element sequence generators and per-line file readers (real, IFN
and weights) kept as oracles for the array ones, the one-process CSV
row loop kept as the oracle for the split writer in the CLI, and the
object-level IFN subtraction, limit checks, means, convergence checks,
sandwiches and component report kept as oracles for the (2, N) row
ones, and the full-length longdouble
prefix-sum formulas kept as oracles for the in-place build in gmean."""

import math
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from gmtauber.ifn import (
    _EPS_SAMPLES,
    ADD_IDENTITY,
    MUL_IDENTITY,
    IFN,
    AdditionLimitOutcome,
    EpsilonIFN,
    IFNTauberReport,
    PartialOrder,
    add,
    multiply,
    power,
    scalar_mul,
)
from gmtauber.gmean import gbar_verdict, transform_log_values
from gmtauber.generators import LOG_HEADER, GeneratorError, _parse_spec
from gmtauber.mcore import LogReal, MTolerance, TailWindow, Verdict, _safe_exp, log_array
from gmtauber.tauber import recoverability_report
from gmtauber.weights import LambdaGrid, WeightSequence, lambda_index


def decomposition_identity_oracle(u, w: WeightSequence, lam: float, n: int) -> LogReal:
    """The block decomposition of u_n/w_n with both lambda branches
    written out, kept as the oracle for gmean's one-branch form."""
    if lam == 1.0:
        raise ValueError("lambda must differ from 1")
    ln = lambda_index(lam, n)
    hi = max(n, ln)
    if hi >= len(u):
        raise IndexError(
            f"identity at (lambda={lam}, n={n}) needs index {hi}, "
            f"sequence has length {len(u)}"
        )
    logs = log_array(u[: hi + 1])
    means = transform_log_values(logs, w)
    P = w.P
    p = w.p

    lhs = logs[n] - means[n]
    if lam > 1:
        if not P[ln] > P[n]:
            raise ValueError(
                f"precondition P_lambda_n > P_n violated at (lambda={lam}, n={n})"
            )
        dP = P[ln] - P[n]
        block = math.fsum(
            p[k] * (logs[k] - logs[n]) for k in range(n + 1, ln + 1)
        )
        rhs = (P[ln] / dP) * (means[ln] - means[n]) - block / dP
    else:
        if not P[n] > P[ln]:
            raise ValueError(
                f"precondition P_n > P_lambda_n violated at (lambda={lam}, n={n})"
            )
        dP = P[n] - P[ln]
        block = math.fsum(
            p[k] * (logs[n] - logs[k]) for k in range(ln + 1, n + 1)
        )
        rhs = (P[ln] / dP) * (means[n] - means[ln]) + block / dP
    return LogReal(abs(lhs - rhs))


def check_lambda_bounds_oracle(lam: float, window: TailWindow, length: int) -> None:
    """The per-lambda bound check of the oracles below, kept apart from
    the library's block walk so that the oracles stay independent."""
    top = math.floor(lam * window.end_index)
    if top >= length:
        raise ValueError(
            f"lambda index floor({lam} * {window.end_index}) = {top} exceeds "
            f"the materialized sequence length {length}"
        )


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
            check_lambda_bounds_oracle(lam, window, len(u))
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


# Prefix sums the straightforward way, with every full-length array in
# extended precision: the oracles for gmean's in-place S and buffered
# divide.


def longdouble_prefixes(x: np.ndarray, w: WeightSequence) -> tuple[np.ndarray, np.ndarray]:
    n = x.size
    S = np.cumsum(w.p[:n].astype(np.longdouble) * x.astype(np.longdouble))
    return S, w.P[:n].astype(np.longdouble)


def transform_log_values_oracle(x: np.ndarray, w: WeightSequence) -> np.ndarray:
    """log w_n = S_n / P_n as a full-length longdouble quotient, rounded."""
    S, P = longdouble_prefixes(x, w)
    return (S / P).astype(np.float64)


def condition_curve_oracle(
    x: np.ndarray,
    S: np.ndarray,
    P: np.ndarray,
    grid: LambdaGrid,
    window: TailWindow,
    side: int,
) -> dict[float, float]:
    """tauber_condition_curve on full-length longdouble S and P."""
    ns = np.arange(window.start_index, window.end_index + 1, dtype=np.int64)
    branch = grid.above_one if side == 1 else grid.below_one
    curve: dict[float, float] = {}
    for lam in branch:
        if side == 1:
            check_lambda_bounds_oracle(lam, window, x.size)
        lns = np.floor(lam * ns).astype(np.int64)
        if side == 1:
            dP = P[lns] - P[ns]
            numer = np.abs((S[lns] - S[ns]) - dP * x[ns])
        else:
            dP = P[ns] - P[lns]
            numer = np.abs(dP * x[ns] - (S[ns] - S[lns]))
        valid = dP > 0
        if not np.any(valid):
            continue
        curve[lam] = _safe_exp(float(np.max(numer[valid] / dP[valid])))
    return curve


def report_prefix_fields_oracle(
    x: np.ndarray, w: WeightSequence, grid: LambdaGrid, window: TailWindow, tol: MTolerance
) -> tuple[Verdict, dict[float, float], dict[float, float]]:
    """The fields of recoverability_report that the prefix sums feed: the
    gbar verdict and the con1 and con2 curves. The rest of the report
    does not read S or P."""
    S, P = longdouble_prefixes(x, w)
    return (
        gbar_verdict(transform_log_values_oracle(x, w), tol, window),
        condition_curve_oracle(x, S, P, grid, window, 1),
        condition_curve_oracle(x, S, P, grid, window, 2),
    )


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
        if len(lines) == 1:
            raise ValueError(f"sequence file {path} has no values")
        return [LogReal.from_log(float(ln)) for ln in lines[1:]]
    return [LogReal.of(float(ln)) for ln in lines]


def read_ifn_sequence_oracle(path: str | Path) -> list[IFN]:
    """Per-line form of gmtauber.generators.read_ifn_sequence."""
    out = []
    for i, ln in enumerate(Path(path).read_text().splitlines()):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {i + 1} of {path} is not a 'mu,nu' pair: {ln!r}")
        out.append(IFN(float(parts[0]), float(parts[1])))
    if not out:
        raise ValueError(f"sequence file {path} is empty")
    return out


def read_weights_oracle(path: str | Path) -> WeightSequence:
    """Per-line form of gmtauber.weights.WeightSequence.from_file."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    return WeightSequence([float(ln) for ln in lines if ln])


def write_csv_rows_oracle(f, columns: tuple[np.ndarray, ...], chunk_rows: int) -> None:
    """gmtauber.floatfmt.write_rows in one process: rows
    'n,repr(c[n]),...' as ASCII bytes into the binary file f, in chunks
    of chunk_rows."""
    length = columns[0].size
    for start in range(0, length, chunk_rows):
        stop = min(start + chunk_rows, length)
        cells = [map(repr, c[start:stop].tolist()) for c in columns]
        f.write("\n".join(map(",".join, zip(map(str, range(start, stop)), *cells))).encode("ascii"))
        f.write(b"\n")


# Object-level IFN layer: one IFN per element and per intermediate, the
# straightforward form of the (2, N) row code in gmtauber.ifn, with the
# multiplicative half written out instead of conjugated by the swap. The
# closed forms of powers and means clamp as the library does: the mu
# part is at most (1 - nu)^c, or W(1 - nu), as in exact arithmetic.


def multiply_oracle(a: IFN, b: IFN) -> IFN:
    return IFN(a.mu * b.mu, 1.0 - (1.0 - a.nu) * (1.0 - b.nu))


def power_oracle(a: IFN, c: float) -> IFN:
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"exponent must be finite and nonnegative, got {c}")
    if not (a.mu > 0.0 and a.nu < 1.0):
        raise ValueError(f"power needs mu > 0 and nu < 1, got {a}")
    if c == 1.0:
        return a
    keep = (1.0 - a.nu) ** c
    return IFN(min(a.mu**c, keep), 1.0 - keep)


def _lt_L(a: IFN, b: IFN) -> bool:
    return a.mu < b.mu and a.nu > b.nu


def total_order_cmp_oracle(a: IFN, b: IFN, tie_tol: float = 1e-12) -> int:
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


def subtract_quotient_oracle(a: IFN, b: IFN) -> IFN | None:
    """Quotient branch of a - b, or None when the guards fail.

    Boundary ties (within 1e-12) go to the quotient branch; the result is
    projected back onto the simplex if it overshoots.
    """
    # b.mu < 1 as well as b.nu > 0: a pair (1.0, nu) with nu below 2**-53
    # passes b.nu > 0 alone, and the quotient then divides by 1 - b.mu = 0.
    if not (b.mu < 1.0 and b.nu > 0):
        return None
    if a.mu < b.mu - 1e-12 or a.nu > b.nu + 1e-12:
        return None
    if a.nu * b.hesitancy > a.hesitancy * b.nu + 1e-12:
        return None
    mu = min(max((a.mu - b.mu) / (1.0 - b.mu), 0.0), 1.0)
    nu = min(max(a.nu / b.nu, 0.0), 1.0 - mu)
    return IFN(mu, nu)


def subtract_oracle(a: IFN, b: IFN) -> IFN:
    q = subtract_quotient_oracle(a, b)
    return ADD_IDENTITY if q is None else q


def region_quotient_oracle(a: IFN, xi: IFN) -> IFN | None:
    """a - xi if a lies in the addition region of xi, else None: the
    subtraction must go through the quotient branch and the
    reconstruction xi + (a - xi) must reproduce a within 1e-12."""
    beta = subtract_quotient_oracle(a, xi)
    if beta is None:
        return None
    recon = add(xi, beta)
    if abs(recon.mu - a.mu) <= 1e-12 and abs(recon.nu - a.nu) <= 1e-12:
        return beta
    return None


def in_addition_region_oracle(a: IFN, xi: IFN) -> bool:
    return region_quotient_oracle(a, xi) is not None


def partial_order_cmp_oracle(a: IFN, b: IFN) -> PartialOrder:
    if a.mu == b.mu and a.nu == b.nu:
        return PartialOrder.EQUAL
    if a.mu > b.mu and a.nu < b.nu:
        return PartialOrder.GREATER_L
    if _lt_L(a, b):
        return PartialOrder.LESS_L
    return PartialOrder.INCOMPARABLE


def _window(seq: Sequence[IFN], window: TailWindow | None) -> TailWindow:
    if window is None:
        window = TailWindow.last_half(len(seq))
    window.check_fits(len(seq), "IFN sequence")
    return window


def oplus_sandwich_oracle(seq, xi: IFN, eps: float, window=None) -> bool:
    bar_eps = EpsilonIFN(eps).additive_form
    window = _window(seq, window)
    xi_plus = add(xi, bar_eps)
    for n in window.indices():
        a = seq[n]
        if not (_lt_L(a, xi_plus) and _lt_L(xi, add(a, bar_eps))):
            return False
    return True


def otimes_sandwich_oracle(seq, xi: IFN, eps: float, window=None) -> bool:
    bar_eps = EpsilonIFN(eps).multiplicative_form
    window = _window(seq, window)
    xi_times = multiply_oracle(xi, bar_eps)
    for n in window.indices():
        a = seq[n]
        if not (_lt_L(multiply_oracle(a, bar_eps), xi) and _lt_L(xi_times, a)):
            return False
    return True


def addition_limit_check_oracle(seq, xi: IFN, eps: EpsilonIFN, window=None) -> AdditionLimitOutcome:
    window = _window(seq, window)
    quotients = [region_quotient_oracle(seq[n], xi) for n in window.indices()]
    if any(q is None for q in quotients):
        return AdditionLimitOutcome.NOT_APPLICABLE
    if all(_lt_L(q, eps.additive_form) for q in quotients):
        return AdditionLimitOutcome.HOLDS
    return AdditionLimitOutcome.FAILS


def zhangxu_limit_check_oracle(seq, xi: IFN, eps: IFN, window=None) -> bool:
    if eps.mu == 0.0 and eps.nu == 1.0:
        raise ValueError("eps must differ from (0, 1)")
    xi_plus = add(xi, eps)
    for n in _window(seq, window).indices():
        a = seq[n]
        c = total_order_cmp_oracle(a, xi)
        if c > 0:
            if not total_order_cmp_oracle(a, xi_plus) < 0:
                return False
        elif c < 0:
            if not total_order_cmp_oracle(xi, add(a, eps)) < 0:
                return False
    return True


def zhangxu_limit_check_sampled_oracle(seq, xi: IFN, window=None) -> bool:
    return all(zhangxu_limit_check_oracle(seq, xi, eps, window) for eps in _EPS_SAMPLES)


def _component_test(seq, xi: IFN, tol: float, window: TailWindow) -> bool:
    return all(
        abs(seq[n].mu - xi.mu) <= tol and abs(seq[n].nu - xi.nu) <= tol
        for n in window.indices()
    )


def oplus_convergence_oracle(seq, xi: IFN, tol: float = 1e-3, window=None) -> bool:
    if not (xi.mu < 1.0 and xi.nu > 0.0):
        raise ValueError(f"limit candidate must satisfy mu < 1 and nu > 0, got {xi}")
    window = _window(seq, window)
    comp = _component_test(seq, xi, tol, window)
    room = min(1.0 - xi.mu - tol, xi.nu - tol)
    if comp and room > 0:
        eps_cross = min(1.0, 2.0 * tol / room)
        if eps_cross < 1.0 and not oplus_sandwich_oracle(seq, xi, eps_cross, window):
            warnings.warn(
                "component test passed but the additive sandwich failed at "
                f"eps={eps_cross}; window evidence sits on the tolerance edge",
                RuntimeWarning,
                stacklevel=2,
            )
    return comp


def otimes_convergence_oracle(seq, xi: IFN, tol: float = 1e-3, window=None) -> bool:
    if not (xi.mu > 0.0 and xi.nu < 1.0):
        raise ValueError(f"limit candidate must satisfy mu > 0 and nu < 1, got {xi}")
    window = _window(seq, window)
    comp = _component_test(seq, xi, tol, window)
    room = min(xi.mu - tol, 1.0 - xi.nu - tol)
    if comp and room > 0:
        eps_cross = min(1.0, 2.0 * tol / room)
        if eps_cross < 1.0 and not otimes_sandwich_oracle(seq, xi, eps_cross, window):
            warnings.warn(
                "component test passed but the multiplicative sandwich failed "
                f"at eps={eps_cross}; window evidence sits on the tolerance edge",
                RuntimeWarning,
                stacklevel=2,
            )
    return comp


def _require_all(seq, inside, assumption: str) -> None:
    for k, a in enumerate(seq):
        if not inside(a):
            raise ValueError(f"element {k} = {a} violates the {assumption}")


def _require_additive(seq) -> None:
    _require_all(
        seq,
        lambda a: a.mu < 1.0 and a.nu > 0.0,
        "additive-mean assumption (needs mu < 1 and nu > 0)",
    )


def _require_geometric(seq) -> None:
    _require_all(
        seq,
        lambda a: a.mu > 0.0 and a.nu < 1.0,
        "geometric-mean assumption (needs mu > 0 and nu < 1)",
    )


def ifwa_means_oracle(seq, w) -> list[IFN]:
    if len(seq) == 0:
        raise ValueError("cannot average an empty sequence")
    _require_additive(seq)
    one_minus_mu = np.log([1.0 - a.mu for a in seq])
    nus = np.log([a.nu for a in seq])
    w_mu = np.exp(transform_log_values(one_minus_mu, w))
    w_nu = np.exp(transform_log_values(nus, w))
    return [IFN(1.0 - float(m), min(float(v), float(m))) for m, v in zip(w_mu, w_nu)]


def ifwg_means_oracle(seq, w) -> list[IFN]:
    if len(seq) == 0:
        raise ValueError("cannot average an empty sequence")
    _require_geometric(seq)
    mus = np.log([a.mu for a in seq])
    one_minus_nu = np.log([1.0 - a.nu for a in seq])
    w_mu = np.exp(transform_log_values(mus, w))
    w_nu = np.exp(transform_log_values(one_minus_nu, w))
    return [IFN(min(float(m), float(v)), 1.0 - float(v)) for m, v in zip(w_mu, w_nu)]


def np_oplus_verdict_oracle(seq, w, xi: IFN, tol: float = 1e-3, window=None) -> Verdict:
    means = ifwa_means_oracle(seq, w)
    window = _window(means, window)
    passed = oplus_convergence_oracle(means, xi, tol, window)
    return Verdict(passed=passed, limit=means[window.end_index], window=window, tolerance=tol)


def gp_otimes_verdict_oracle(seq, w, xi: IFN, tol: float = 1e-3, window=None) -> Verdict:
    means = ifwg_means_oracle(seq, w)
    window = _window(means, window)
    passed = otimes_convergence_oracle(means, xi, tol, window)
    return Verdict(passed=passed, limit=means[window.end_index], window=window, tolerance=tol)


def ifn_tauber_report_oracle(
    seq, w, grid=None, window=None, mode: str = "oplus", thresholds=None
) -> IFNTauberReport:
    if mode == "oplus":
        _require_additive(seq)
        labels = ("one_minus_mu", "nu")
        first = np.log([1.0 - a.mu for a in seq])
        second = np.log([a.nu for a in seq])
    elif mode == "otimes":
        _require_geometric(seq)
        labels = ("mu", "one_minus_nu")
        first = np.log([a.mu for a in seq])
        second = np.log([1.0 - a.nu for a in seq])
    else:
        raise ValueError(f"mode must be 'oplus' or 'otimes', got {mode!r}")
    components = {
        label: recoverability_report(logs, w, grid, window, thresholds)
        for label, logs in zip(labels, (first, second))
    }
    return IFNTauberReport(
        mode=mode,
        component_labels=labels,
        components=components,
        recovery_verdict=all(rep.recovery_verdict for rep in components.values()),
    )
