"""The benchmark's workloads: seeded inputs, the `gmt` argv of each one,
and a numpy reference that checks the report a run writes.

The reference never imports gmtauber. Where the input allows it, block
extrema come from monotonicity: ex1 is monotone on each parity class and
exp-decay is monotone, so a block's max and min sit at its ends. The
jittered IFN file has no such structure and goes through a sparse table.

Tolerances are fixed before any run, from float64 rounding and the size
of the summed terms: a running float64 sum of n terms of total
magnitude A is off by at most about n * eps * A. Each bound is doubled
because both the program and this reference round.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# The program saturates exp(x) to inf from x >= 709.
SATURATE_LOG = 709.0
THETA = 1.05
SVA_FLOOR = 1e-3
VANISH_LOG = math.log(1.0 + 1e-6)
DEFAULT_GRID = tuple(
    sorted(
        {1.0 + 2.0**-j for j in range(1, 7)}
        | {1.0 - 2.0**-j for j in range(1, 7)}
        | {0.5, 2.0}
    )
)
IFN_GRID = (0.99, 1.01)
IFN_JITTER = 0.05
BULK_WINDOW_LEN = 256

# Problem size per workload: the generated n_max, or the IFN file's
# line count. "full" is what BENCHMARK.json measures; "tiny" runs the
# same code paths in well under a second, for the self-test.
SIZES = {
    "full": {"analyze-bulk": 1_000_000, "analyze-diag": 200_000, "ifn-file-csv": 200_000},
    "tiny": {"analyze-bulk": 20_000, "analyze-diag": 2_000, "ifn-file-csv": 10_000},
}
WORKLOADS = tuple(SIZES["full"])


class AmbiguousInput(Exception):
    """A reference value sits within tolerance of a verdict threshold,
    so the expected verdict is not decided by the input."""


@dataclass(frozen=True)
class Check:
    """One report field and the value it must carry.

    `how` maps the reported value into the domain of `expected`:
    "exact" compares as is, "num" within `tol`, "explog" takes the log
    of a value the program may have saturated to "inf", "log" and
    "log1m" take log(v) and log(1 - v).
    """

    path: tuple[str, ...]
    expected: object
    how: str = "exact"
    tol: float = 0.0


@dataclass
class Case:
    """A workload prepared for one seed: its argv and its reference."""

    name: str
    argv: list[str]
    report: Path
    length: int
    checks: list[Check]
    csv: Path | None = None
    csv_header: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for check in self.checks:
            if check.how == "explog":
                _decided(check.expected, SATURATE_LOG, check.tol, "/".join(check.path))

    def outputs(self) -> list[Path]:
        return [p for p in (self.csv, self.report) if p is not None]


# ---------------------------------------------------------------------------
# Reference arithmetic


def weights_array(spec: str, length: int) -> np.ndarray:
    name, _, tail = spec.partition(":")
    if name == "ones":
        return np.ones(length)
    if name == "harmonic":
        return 1.0 / (np.arange(length, dtype=np.float64) + 1.0)
    if name == "alternating":
        a, b = (float(v) for v in tail.split(","))
        p = np.empty(length)
        p[0::2] = a
        p[1::2] = b
        return p
    raise ValueError(f"no reference for weights {spec!r}")


def parity_monotone_extrema(x: np.ndarray):
    """Block max/min of a sequence that is monotone on each parity class.

    Within a block each class attains its extremes at its first and last
    member, so a query reads at most four elements.
    """
    for q in (0, 1):
        d = np.diff(x[q::2])
        if not (np.all(d >= 0) or np.all(d <= 0)):
            raise ValueError("sequence is not monotone on each parity class")

    def extrema(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Block is x[lo+1 .. hi], hi > lo.
        a, b = lo + 1, hi
        bmax = np.full(lo.shape, -np.inf)
        bmin = np.full(lo.shape, np.inf)
        for q in (0, 1):
            first = a + (q - a) % 2
            last = b - (b - q) % 2
            ok = first <= last
            f = np.where(ok, first, 0)
            l = np.where(ok, last, 0)
            bmax = np.maximum(bmax, np.where(ok, np.maximum(x[f], x[l]), -np.inf))
            bmin = np.minimum(bmin, np.where(ok, np.minimum(x[f], x[l]), np.inf))
        return bmax, bmin

    return extrema


def sparse_table_extrema(x: np.ndarray, max_len: int):
    """Block max/min for blocks of up to `max_len` elements.

    Level k holds the extremes of every run of 2^k elements; a block is
    covered by two overlapping runs of the largest fitting level.
    """
    tmax, tmin = [x], [x]
    while 2 ** len(tmax) <= max_len:
        half = 2 ** (len(tmax) - 1)
        tmax.append(np.maximum(tmax[-1][:-half], tmax[-1][half:]))
        tmin.append(np.minimum(tmin[-1][:-half], tmin[-1][half:]))

    def extrema(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = lo + 1, hi
        k = np.frexp((b - a + 1).astype(np.float64))[1] - 1
        bmax = np.empty(lo.shape)
        bmin = np.empty(lo.shape)
        for level in np.unique(k):
            sel = k == level
            i, j = a[sel], b[sel] - 2**level + 1
            bmax[sel] = np.maximum(tmax[level][i], tmax[level][j])
            bmin[sel] = np.minimum(tmin[level][i], tmin[level][j])
        return bmax, bmin

    return extrema


def _decided(value: float, threshold: float, tol: float, what: str) -> float:
    if abs(value - threshold) <= tol:
        raise AmbiguousInput(f"{what}: {value!r} is within {tol:.3g} of {threshold!r}")
    return value


class Reference:
    """Running weighted means of one log sequence x under weights p."""

    def __init__(self, x: np.ndarray, p: np.ndarray):
        self.x = x
        self.P = np.cumsum(p)
        self.S = np.cumsum(p * x)
        self.A = np.cumsum(np.abs(p * x))
        self.W = self.S / self.P

    def mean_tol(self, n: int) -> float:
        return 4 * EPS * (n + 1) * self.A[n] / self.P[n] + 4 * EPS * abs(self.W[n])

    def stable(self, window: tuple[int, int], log_tol: float, what: str) -> bool:
        """Every mean in the window within log_tol of the one at its end."""
        s, e = window
        dev = float(np.max(np.abs(self.W[s : e + 1] - self.W[e])))
        tol = max(self.mean_tol(n) for n in (s, e))
        return _decided(dev, log_tol, 2 * tol, what) < log_tol

    def condition(self, grid, window, side: int) -> tuple[float, float]:
        """log con1 (side 1) or con2 (side 2) and its tolerance."""
        x, S, A, P = self.x, self.S, self.A, self.P
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
        best, tol = math.inf, 0.0
        for lam in grid:
            if (lam > 1) != (side == 1):
                continue
            lns = np.floor(lam * ns).astype(np.int64)
            if side == 1:
                dP = P[lns] - P[ns]
                numer = np.abs((S[lns] - S[ns]) - dP * x[ns])
                hi = lns
            else:
                dP = P[ns] - P[lns]
                numer = np.abs(dP * x[ns] - (S[ns] - S[lns]))
                hi = ns
            ok = dP > 0
            if not np.any(ok):
                continue
            val = float(np.max(numer[ok] / dP[ok]))
            err = 4 * EPS * (hi[ok] + 1) * (A[hi[ok]] + np.abs(x[ns[ok]]) * P[hi[ok]])
            best = min(best, val)
            tol = max(tol, float(np.max(err / dP[ok])) + 4 * EPS * val)
        return best, tol

    def slow_osc(self, grid, window, backward: bool, extrema) -> tuple[float, float]:
        """log of the slow-oscillation estimate and its tolerance."""
        x = self.x
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
        best = math.inf
        for lam in grid:
            if (lam < 1) != backward:
                continue
            lns = np.floor(lam * ns).astype(np.int64)
            lo, hi = (lns, ns) if backward else (ns, lns)
            keep = hi > lo
            if not np.any(keep):
                continue
            bmax, bmin = extrema(lo[keep], hi[keep])
            xn = x[ns[keep]]
            best = min(best, float(np.max(np.maximum(bmax - xn, xn - bmin))))
        scale = float(np.max(np.abs(x[window[0] : window[1] + 1])))
        return best, 4 * EPS * (scale + abs(best))

    def landau(self, window) -> tuple[float, float]:
        x = self.x
        ns = np.arange(max(1, window[0]), window[1] + 1, dtype=np.int64)
        worst = float(np.max(np.abs(ns * (x[ns] - x[ns - 1]))))
        scale = float(np.max(np.abs(x[window[0] - 1 : window[1] + 1])))
        return worst, 4 * EPS * (window[1] * scale + worst)


def sva_checks(p: np.ndarray, grid, window) -> list[Check]:
    P = np.cumsum(p)
    ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
    checks, passed = [], True
    for lam in grid:
        lns = np.floor(lam * ns).astype(np.int64)
        val = float(np.min(np.abs(P[lns] / P[ns] - 1.0)))
        tol = 8 * EPS * (lns[-1] + 1) * (1.0 + val)
        checks.append(Check(("weights", "sva", "per_lambda", repr(lam)), val, "num", tol))
        passed &= _decided(val, SVA_FLOOR, tol, f"sva at {lam}") > SVA_FLOOR
    checks.append(Check(("weights", "sva", "verdict"), passed))
    return checks


def tauber_checks(
    ref: Reference, prefix: tuple[str, ...], grid, window, gbar_log_tol: float, extrema
) -> list[Check]:
    """What recoverability_report must give on `window` for ref.x."""
    gbar = ref.stable(window, gbar_log_tol, "tauber gbar")
    con1, tol1 = ref.condition(grid, window, 1)
    con2, tol2 = ref.condition(grid, window, 2)
    fwd, tolf = ref.slow_osc(grid, window, False, extrema)
    back, tolb = ref.slow_osc(grid, window, True, extrema)
    landau, toll = ref.landau(window)
    log_theta = math.log(THETA)
    below = [
        _decided(c, log_theta, t, "condition vs theta") <= log_theta
        for c, t in ((con1, tol1), (con2, tol2))
    ]
    vanish = _decided(landau, VANISH_LOG, toll, "landau vanish") < VANISH_LOG
    e = window[1]
    return [
        Check(prefix + ("gbar_verdict", "passed"), gbar),
        Check(prefix + ("gbar_verdict", "limit", "log"), float(ref.W[e]), "num", ref.mean_tol(e)),
        Check(prefix + ("con1_estimate",), con1, "explog", tol1),
        Check(prefix + ("con2_estimate",), con2, "explog", tol2),
        Check(prefix + ("slow_osc_estimate",), fwd, "explog", tolf),
        Check(prefix + ("slow_osc_backward_estimate",), back, "explog", tolb),
        Check(prefix + ("landau_bound_estimate",), landau, "explog", toll),
        Check(prefix + ("landau_vanish",), vanish),
        Check(prefix + ("recovery_verdict",), bool(gbar and any(below))),
    ]


# ---------------------------------------------------------------------------
# Workloads


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _analyze_case(name, argv, x, weights, window, workdir, params) -> Case:
    p = weights_array(weights, x.size)
    ref = Reference(x, p)
    e = window[1]
    checks = [Check(("sequence", "length"), x.size)]
    checks.append(Check(("analysis", "limit_estimate", "log"), float(ref.W[e]), "num", ref.mean_tol(e)))
    # The CLI's --tol (default 1.01) drives both mean-stability verdicts.
    log_tol = math.log(1.01)
    checks.append(Check(("analysis", "gbar", "passed"), ref.stable(window, log_tol, "gbar")))
    checks += tauber_checks(
        ref, ("analysis", "tauber"), DEFAULT_GRID, window, log_tol, parity_monotone_extrema(x)
    )
    checks += sva_checks(p, DEFAULT_GRID, window)
    report = workdir / f"{name}.json"
    argv = argv + ["--window", f"{window[0]}:{window[1]}", "--out", str(report)]
    return Case(name, argv, report, x.size, checks, params=params)


def prepare_bulk(seed: int, scale: str, workdir: Path) -> Case:
    """Example 1 at N = 10^6: the O(N) object layers dominate."""
    n_max = SIZES[scale]["analyze-bulk"]
    usable = n_max // 2  # (len - 1) / max(lambda) with lambda up to 2
    end = usable - int(_rng("analyze-bulk", seed).integers(0, usable // 100 + 1))
    window = (end - BULK_WINDOW_LEN + 1, end)
    n = np.arange(n_max + 1, dtype=np.float64)
    x = np.where(n % 2 == 0, n + 1.0, -(n + 1.0))
    argv = ["analyze", "--generator", "ex1", "--weights", "harmonic", "--n-max", str(n_max)]
    return _analyze_case(
        "analyze-bulk", argv, x, "harmonic", window, workdir, {"window": list(window)}
    )


def prepare_diag(seed: int, scale: str, workdir: Path) -> Case:
    """Full-width diagnostic window on exp-decay: slow oscillation dominates."""
    n_max = SIZES[scale]["analyze-diag"]
    c = round(0.5 + 1.5 * float(_rng("analyze-diag", seed).random()), 6)
    window = (n_max // 4, n_max // 2 - 1)
    x = c / (np.arange(n_max + 1, dtype=np.float64) + 1.0)
    argv = [
        "analyze", "--generator", f"exp-decay:c={c!r}", "--weights", "ones",
        "--n-max", str(n_max),
    ]
    return _analyze_case("analyze-diag", argv, x, "ones", window, workdir, {"c": c})


def prepare_ifn(seed: int, scale: str, workdir: Path) -> Case:
    """An ex4-ifn-style file with seeded jitter, analysed in otimes mode
    and written as CSV."""
    length = SIZES[scale]["ifn-file-csv"]
    window = (length // 2, length * 99 // 100)
    # ex4-ifn: ((1/9)^e, 1 - (1/4)^e) with e hopping between 3 and 1. A
    # jittered exponent keeps every pair inside mu + nu < 1.
    jitter = _rng("ifn-file-csv", seed).uniform(-IFN_JITTER, IFN_JITTER, length)
    e = np.where(np.arange(length) % 2 == 0, 3.0, 1.0) * (1.0 + jitter)
    mu = (1.0 / 9.0) ** e
    nu = 1.0 - 0.25**e
    path = workdir / "ifn-input.txt"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(mu.tolist(), nu.tolist())))

    weights = "alternating:1,3"
    p = weights_array(weights, length)
    # otimes mode drives the components log(mu) and log(1 - nu).
    comps = {"mu": np.log(mu), "one_minus_nu": np.log(1.0 - nu)}
    refs = {label: Reference(x, p) for label, x in comps.items()}
    s, end = window
    tol = 1e-3  # the CLI's default --tol for ifn-analyze

    def component_dev(values: np.ndarray, target: float, what: str) -> bool:
        dev = float(np.max(np.abs(values[s : end + 1] - target)))
        return _decided(dev, tol, 1e-9, what) <= tol

    mean_mu = np.exp(refs["mu"].W)
    mean_nu = 1.0 - np.exp(refs["one_minus_nu"].W)
    xi_mu, xi_nu = float(mean_mu[end]), float(mean_nu[end])
    mean_passed = component_dev(mean_mu, xi_mu, "mean mu") and component_dev(
        mean_nu, xi_nu, "mean nu"
    )
    plain = component_dev(mu, xi_mu, "plain mu") and component_dev(nu, xi_nu, "plain nu")

    checks = [
        Check(("sequence", "length"), length),
        Check(("analysis", "xi_estimate", "mu"), float(refs["mu"].W[end]), "log",
              refs["mu"].mean_tol(end)),
        Check(("analysis", "xi_estimate", "nu"), float(refs["one_minus_nu"].W[end]), "log1m",
              refs["one_minus_nu"].mean_tol(end) + 4 * EPS / (1.0 - xi_nu)),
        Check(("analysis", "mean_verdict", "passed"), mean_passed),
        Check(("analysis", "plain_convergence"), plain),
    ]
    recovered = True
    gbar_log_tol = math.log(1.0 + 1e-6)  # ReportThresholds default
    for label, ref in refs.items():
        found = tauber_checks(
            ref, ("analysis", "tauber", "components", label), IFN_GRID, window,
            gbar_log_tol, sparse_table_extrema(ref.x, length // 50),
        )
        recovered &= found[-1].expected
        checks += found
    checks.append(Check(("analysis", "tauber", "recovery_verdict"), recovered))
    checks += sva_checks(p, IFN_GRID, window)

    csv = workdir / "ifn-file-csv.csv"
    argv = [
        "ifn-analyze", "--in", str(path), "--mode", "otimes", "--weights", weights,
        "--lambda-grid", ",".join(map(repr, IFN_GRID)), "--window", f"{s}:{end}",
        "--format", "csv", "--out", str(csv),
    ]
    return Case(
        "ifn-file-csv", argv, Path(str(csv) + ".json"), length, checks,
        csv=csv, csv_header="n,mu,nu,mean_mu,mean_nu",
        params={"jitter": IFN_JITTER},
    )


PREPARE = {
    "analyze-bulk": prepare_bulk,
    "analyze-diag": prepare_diag,
    "ifn-file-csv": prepare_ifn,
}


def prepare(name: str, seed: int, scale: str, workdir: Path) -> Case:
    return PREPARE[name](seed, scale, workdir)


# ---------------------------------------------------------------------------
# Output check


def _lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            raise KeyError("/".join(path))
        doc = doc[key]
    return doc


def _as_float(v) -> float:
    if v in ("inf", "-inf", "nan"):
        return float(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"not a number: {v!r}")
    return float(v)


def _mismatch(check: Check, got) -> str | None:
    exp = check.expected
    if check.how == "exact":
        return None if got == exp and type(got) is type(exp) else f"{got!r} != {exp!r}"
    got = _as_float(got)
    if check.how == "explog":
        if exp > SATURATE_LOG:
            return None if got == math.inf else f"{got!r} should saturate to inf"
        if not (0 < got < math.inf):
            return f"{got!r} is not a finite positive estimate"
        got = math.log(got)
    elif check.how == "log":
        got = math.log(got) if got > 0 else -math.inf
    elif check.how == "log1m":
        got = math.log(1.0 - got) if got < 1 else -math.inf
    # A value that went through exp() carries one more rounding in its log.
    tol = check.tol if check.how == "num" else check.tol + 4 * EPS
    err = abs(got - exp)
    return None if err <= tol else f"{got!r} vs {exp!r} (|diff| {err:.3g} > {tol:.3g})"


def check_outputs(case: Case) -> list[str]:
    """Every mismatch between the written outputs and the reference.

    Fields the checks do not name are ignored, so schema additions are
    not failures.
    """
    problems = []
    try:
        doc = json.loads(case.report.read_text())
    except (OSError, ValueError) as exc:
        return [f"report {case.report.name}: {exc}"]
    for check in case.checks:
        try:
            msg = _mismatch(check, _lookup(doc, check.path))
        except (KeyError, TypeError, ValueError) as exc:
            msg = f"unreadable: {exc}"
        if msg:
            problems.append(f"{'/'.join(check.path)}: {msg}")
    if case.csv is not None:
        try:
            data = case.csv.read_bytes()
        except OSError as exc:
            return problems + [f"csv: {exc}"]
        header = data[: data.find(b"\n")].decode()
        rows = data.count(b"\n") - 1
        if header != case.csv_header:
            problems.append(f"csv header {header!r} != {case.csv_header!r}")
        if rows != case.length:
            problems.append(f"csv has {rows} rows, sequence has {case.length}")
    return problems
