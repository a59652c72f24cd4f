"""Command line front end: sequence generators, analysis pipelines and
deterministic report emission.

Subcommands: generate, analyze, ifn-analyze, report. Exit codes: 0 on
success, 2 on configuration errors (unknown generator, bad flags or
files), 3 on numerical precondition failures inside a pipeline.
"""

import argparse
import contextlib
import datetime
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mcore import LogReal, MTolerance, TailWindow, Verdict
from .weights import (
    LambdaGrid,
    SvaPlusEstimate,
    WeightSequence,
    default_report_window,
    sva_plus_estimate,
    usable_end,
)
from .gmean import gbar_verdict, transform_log_values
from .tauber import ReportThresholds, TauberReport, recoverability_report
from .ifn import (
    IFN,
    IFNRows,
    IFNTauberReport,
    ifn_tauber_report,
    ifwa_means,
    ifwg_means,
    mean_verdict,
    oplus_convergence_check,
    otimes_convergence_check,
)
from . import generators
from .generators import GeneratorError

SCHEMA_VERSION = 1
DEFAULT_N_MAX_REAL = 10_000
DEFAULT_N_MAX_IFN = 1_000
ENV_FORMAT = "GMT_DEFAULT_FORMAT"
CSV_CHUNK_ROWS = 1 << 13


class ConfigError(Exception):
    """A problem with flags, files or other run configuration."""


# ---------------------------------------------------------------------------
# JSON-safe rendering


def _num(x: float):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _logreal_dict(u: LogReal) -> dict:
    return {"log": _num(u.log_value), "value": _num(u.value)}


def _ifn_dict(a: IFN) -> dict:
    return {"mu": a.mu, "nu": a.nu}


def _window_dict(win: TailWindow) -> dict:
    return {"start": win.start_index, "end": win.end_index}


def _verdict_dict(v: Verdict) -> dict:
    if isinstance(v.limit, LogReal):
        limit = _logreal_dict(v.limit)
    elif isinstance(v.limit, IFN):
        limit = _ifn_dict(v.limit)
    else:
        limit = v.limit
    return {
        "passed": v.passed,
        "limit": limit,
        "window": _window_dict(v.window),
        "tolerance": v.tolerance,
    }


def _curve_dict(curve: dict[float, float]) -> dict:
    return {repr(lam): _num(val) for lam, val in curve.items()}


def _tauber_dict(rep: TauberReport) -> dict:
    return {
        "gbar_verdict": _verdict_dict(rep.gbar_verdict),
        "con1_estimate": _num(rep.con1_estimate),
        "con2_estimate": _num(rep.con2_estimate),
        "slow_osc_estimate": _num(rep.slow_osc_estimate),
        "slow_osc_backward_estimate": _num(rep.slow_osc_backward_estimate),
        "landau_bound_estimate": _num(rep.landau_bound_estimate),
        "landau_vanish": rep.landau_vanish,
        "recovery_verdict": rep.recovery_verdict,
        "theta": rep.theta,
        "window": _window_dict(rep.window),
        "curves": {name: _curve_dict(c) for name, c in rep.curves.items()},
        "skipped_lambdas": {
            name: [repr(lam) for lam in lams]
            for name, lams in rep.skipped_lambdas.items()
        },
    }


def _ifn_tauber_dict(rep: IFNTauberReport) -> dict:
    return {
        "mode": rep.mode,
        "component_labels": list(rep.component_labels),
        "components": {
            rep.component_labels[0]: _tauber_dict(rep.first),
            rep.component_labels[1]: _tauber_dict(rep.second),
        },
        "recovery_verdict": rep.recovery_verdict,
    }


def _sva_dict(est: SvaPlusEstimate) -> dict:
    return {
        "per_lambda": _curve_dict(est.per_lambda),
        "floor": est.floor,
        "verdict": est.verdict,
        "window": _window_dict(est.window),
    }


# ---------------------------------------------------------------------------
# Config


@dataclass
class RunConfig:
    command: str
    generator: str | None
    input_path: str | None
    n_max: int | None
    weights_spec: str
    lambda_values: tuple[float, ...] | None
    window_spec: tuple[int, int] | None
    tol: float
    theta: float
    mode: str | None
    fmt: str
    out: str | None
    timestamp: bool

    def echo(self) -> dict:
        return {
            "command": self.command,
            "generator": self.generator,
            "input": self.input_path,
            "n_max": self.n_max,
            "weights": self.weights_spec,
            "lambda_grid": list(self.lambda_values) if self.lambda_values else "default",
            "window": (
                f"{self.window_spec[0]}:{self.window_spec[1]}"
                if self.window_spec
                else "last-half"
            ),
            "tol": self.tol,
            "theta": self.theta,
            "mode": self.mode,
            "format": self.fmt,
            "out": self.out,
        }


def _resolve_format(value: str | None) -> str:
    if value is None:
        value = os.environ.get(ENV_FORMAT, "json")
    value = value.lower()
    if value not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {value!r}")
    return value


def _parse_window_spec(spec: str | None) -> tuple[int, int] | None:
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window must look like start:end, got {spec!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"window bounds must be integers, got {spec!r}")
    if start < 0 or end < start:
        raise ConfigError(f"window needs 0 <= start <= end, got {spec!r}")
    return start, end


def _parse_lambda_spec(spec: str | None) -> tuple[float, ...] | None:
    if spec is None:
        return None
    try:
        values = tuple(float(v) for v in spec.split(","))
    except ValueError:
        raise ConfigError(f"lambda grid must be comma-separated reals, got {spec!r}")
    return values


def _build_grid(values: tuple[float, ...] | None) -> LambdaGrid:
    if values is None:
        return LambdaGrid.default()
    try:
        return LambdaGrid.of(values)
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid: {exc}")


def build_weights(spec: str, length: int) -> WeightSequence:
    """Weight family by name: ones, harmonic, alternating:a,b, custom:<file>."""
    name, _, tail = spec.partition(":")
    try:
        if name == "ones":
            return WeightSequence.ones(length)
        if name == "harmonic":
            return WeightSequence.harmonic(length)
        if name == "alternating":
            parts = tail.split(",")
            if len(parts) != 2:
                raise ConfigError(f"alternating weights need a,b — got {spec!r}")
            w = WeightSequence.alternating(length, float(parts[0]), float(parts[1]))
            return w
        if name == "custom":
            if not tail:
                raise ConfigError("custom weights need a file: custom:<path>")
            w = WeightSequence.from_file(tail)
            if len(w) < length:
                raise ConfigError(
                    f"weights file {tail} provides {len(w)} weights, "
                    f"sequence needs {length}"
                )
            return w
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot build weights {spec!r}: {exc}")
    raise ConfigError(
        f"unknown weight family {name!r}; use ones, harmonic, alternating:a,b "
        "or custom:<file>"
    )


def _n_max_or_default(n_max: int | None, kind: str) -> int:
    """--n-max, or the default last index of a generated `kind` sequence."""
    if n_max is not None:
        return n_max
    return DEFAULT_N_MAX_REAL if kind == "real" else DEFAULT_N_MAX_IFN


def _load_sequence(
    config: RunConfig, expect_kind: str
) -> tuple[np.ndarray | IFNRows, str]:
    """A real sequence as its float64 log array, an IFN one as IFNRows."""
    if config.generator is not None:
        kind = generators.generator_kind(config.generator)
        if kind != expect_kind:
            raise ConfigError(
                f"generator {config.generator!r} produces a {kind} sequence; "
                f"this subcommand expects {expect_kind}"
            )
        n_max = _n_max_or_default(config.n_max, kind)
        if kind == "real":
            return generators.generate_array(config.generator, n_max), config.generator
        rows = generators.generate_array(config.generator, n_max)
        return IFNRows(rows), config.generator
    if config.n_max is not None:
        raise ConfigError("--n-max applies to generated sequences, not --in files")
    path = config.input_path
    try:
        if expect_kind == "real":
            return generators.read_real_logs(path), str(path)
        return generators.read_ifn_sequence(path), str(path)
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"malformed sequence file {path}: {exc}")


def _base_document(config: RunConfig, kind: str, length: int, source: str) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "sequence": {"kind": kind, "length": length, "source": source},
    }
    if config.timestamp:
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    return doc


def _windows_for(
    config: RunConfig, length: int, grid: LambdaGrid
) -> tuple[TailWindow, TailWindow]:
    """The user-facing verdict window, and the lambda-safe tauber window.

    Without --window the tauber window is the library default. A given
    window is intersected with the usable range [0, bound], where
    bound = (length-1)/max(lambda) keeps every lambda_n in the sequence.
    Either must contain an index n >= 1 for the Landau ratio.
    """
    if config.window_spec is None:
        try:
            return TailWindow.last_half(length), default_report_window(length, grid)
        except ValueError as exc:
            raise ConfigError(
                f"{exc}: raise --n-max (or use a longer --in file) or lower "
                "the largest --lambda-grid value"
            )
    start, end = config.window_spec
    if end >= length:
        raise ConfigError(
            f"window {start}:{end} does not fit the sequence (length {length})"
        )
    bound = usable_end(length, grid)
    if start > bound:
        raise ConfigError(
            f"window {start}:{end} starts past {bound}, the last index whose "
            f"lambda_n stays inside the sequence for lambda grid max "
            f"{grid.max_lambda}"
        )
    if min(end, bound) < 1:
        raise ConfigError(
            f"window {start}:{end} leaves the diagnostics [{start}, "
            f"{min(end, bound)}] with no index n >= 1, which the Landau ratio "
            "(u_n/u_{n-1})^n needs"
        )
    return TailWindow(start, end), TailWindow(start, min(end, bound))


@dataclass
class RunResult:
    doc: dict
    kind: str
    columns: tuple[np.ndarray, ...]  # per-index CSV columns after n
    header: tuple[str, ...]


def run_real(config: RunConfig) -> RunResult:
    x, source = _load_sequence(config, "real")
    grid = _build_grid(config.lambda_values)
    w = build_weights(config.weights_spec, x.size)
    verdict_window, tauber_window = _windows_for(config, x.size, grid)

    tol = MTolerance(config.tol)
    means = transform_log_values(x, w)
    gbar = gbar_verdict(means, tol, verdict_window)
    thresholds = ReportThresholds(theta=config.theta, gbar_tol=tol)
    tauber = recoverability_report(x, w, grid, tauber_window, thresholds)
    sva = sva_plus_estimate(w, grid, tauber_window)

    doc = _base_document(config, "real", x.size, source)
    doc["sequence"]["tail_log"] = x[-10:].tolist()
    doc["weights"] = {"spec": config.weights_spec, "sva": _sva_dict(sva)}
    doc["analysis"] = {
        "limit_estimate": _logreal_dict(gbar.limit),
        "gbar": _verdict_dict(gbar),
        "means_tail_log": means[-10:].tolist(),
        "tauber": _tauber_dict(tauber),
    }

    return RunResult(
        doc=doc, kind="real", columns=(x, means), header=("n", "log_u", "log_w")
    )


def run_ifn(config: RunConfig) -> RunResult:
    seq, source = _load_sequence(config, "ifn")
    grid = _build_grid(config.lambda_values)
    w = build_weights(config.weights_spec, len(seq))
    verdict_window, tauber_window = _windows_for(config, len(seq), grid)
    mode = config.mode
    if mode == "oplus":
        means, check = ifwa_means(seq, w), oplus_convergence_check
    else:
        means, check = ifwg_means(seq, w), otimes_convergence_check
    xi_hat = means[verdict_window.end_index]
    verdict = mean_verdict(means, check, xi_hat, config.tol, verdict_window)
    plain = check(seq, xi_hat, config.tol, verdict_window)

    thresholds = ReportThresholds(theta=config.theta)
    tauber = ifn_tauber_report(seq, w, grid, tauber_window, mode, thresholds)
    sva = sva_plus_estimate(w, grid, tauber_window)

    doc = _base_document(config, "ifn", len(seq), source)
    doc["sequence"]["tail"] = [_ifn_dict(a) for a in seq[-10:]]
    doc["weights"] = {"spec": config.weights_spec, "sva": _sva_dict(sva)}
    doc["analysis"] = {
        "mode": mode,
        "xi_estimate": _ifn_dict(xi_hat),
        "mean_verdict": _verdict_dict(verdict),
        "plain_convergence": plain,
        "means_tail": [_ifn_dict(m) for m in means[-10:]],
        "tauber": _ifn_tauber_dict(tauber),
    }
    return RunResult(
        doc=doc,
        kind="ifn",
        columns=(*seq.rows, *means.rows),
        header=("n", "mu", "nu", "mean_mu", "mean_nu"),
    )


# ---------------------------------------------------------------------------
# Emission


def dumps_document(doc: dict) -> str:
    """The report as strict JSON: a non-finite float raises ValueError
    instead of writing a bare NaN or Infinity token."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"bare {token} is not JSON")


def _check_out(path: str) -> None:
    """Reject an --out that no file can be written to, before any work."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path}: {out.parent} is not an existing directory")


@contextlib.contextmanager
def _writing(path: Path | str):
    """Report an OSError while writing `path` as a ConfigError naming --out."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path} for --out: {exc}") from None


def _emit(result: RunResult, config: RunConfig) -> None:
    text = dumps_document(result.doc)
    if config.fmt == "json":
        if config.out:
            with _writing(config.out):
                Path(config.out).write_text(text)
        else:
            sys.stdout.write(text)
        return
    # csv: per-index rows plus a sidecar JSON with the diagnostics
    if not config.out:
        raise ConfigError("--format csv needs --out (a sidecar JSON is written too)")
    out, sidecar = Path(config.out), Path(config.out + ".json")
    with _writing(out), out.open("wb") as f:
        f.write((",".join(result.header) + "\n").encode("ascii"))
        _write_csv_rows(f, result.columns)
    with _writing(sidecar):
        sidecar.write_text(text)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_csv_rows(f, columns: tuple[np.ndarray, ...]) -> None:
    """Rows 'n,repr(c[n]),...' as ASCII bytes into the binary file f, in
    chunks of CSV_CHUNK_ROWS, so that only one chunk's text is alive at
    a time in each process. Rows end in a bare LF on every platform.

    floatfmt formats a float in a few hundred nanoseconds, a fair share
    of a CSV run, so the rows are still split on chunk boundaries into
    one contiguous part per usable CPU. The caller formats part 0
    straight into f; each later part is formatted by a forked child into
    an unlinked temporary file, which the caller appends to f in order
    once every child has exited.
    """
    from . import floatfmt  # imported here once, so that the children fork with it

    length = columns[0].size
    chunks = (length + CSV_CHUNK_ROWS - 1) // CSV_CHUNK_ROWS
    parts = max(1, min(_usable_cpus(), chunks)) if hasattr(os, "fork") else 1
    cuts = [min(length, CSV_CHUNK_ROWS * (chunks * i // parts)) for i in range(parts + 1)]
    with contextlib.ExitStack() as stack:
        children = []
        try:
            for start, stop in zip(cuts[1:], cuts[2:]):
                tmp = stack.enter_context(tempfile.TemporaryFile("w+b"))
                children.append((_fork_rows(tmp, columns, start, stop), tmp, start, stop))
            _format_rows(f, columns, cuts[0], cuts[1])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, *_ in children]
        for code, (_, tmp, start, stop) in zip(codes, children):
            if code != 0:
                raise RuntimeError(
                    f"formatting CSV rows {start}..{stop - 1} failed in a child "
                    f"process (exit code {code})"
                )
            tmp.seek(0)
            shutil.copyfileobj(tmp, f)


def _fork_rows(tmp, columns: tuple[np.ndarray, ...], start: int, stop: int) -> int:
    """Fork a child that formats rows start..stop-1 into tmp; its pid."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns when a multi-threaded process forks. The
        # `gmt` entry holds OpenBLAS to one thread, so a `gmt` run forks
        # with no other thread; an in-process caller of main may still
        # run numpy's OpenBLAS pool or threads of its own. OpenBLAS shuts
        # its pool down around fork through pthread_atfork, and the child
        # only formats bytes and writes one file.
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        return pid
    # The child leaves through os._exit, on every path: it must neither
    # unwind into the caller's stack nor flush the parent's buffers.
    code = 1
    try:
        _format_rows(tmp, columns, start, stop)
        tmp.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _format_rows(f, columns: tuple[np.ndarray, ...], start: int, stop: int) -> None:
    """Rows start..stop-1, one chunk at a time, each chunk's bytes made by
    floatfmt.rows in one piece."""
    from . import floatfmt  # compiled on first use: runs that print no floats skip it

    for lo in range(start, stop, CSV_CHUNK_ROWS):
        table = np.column_stack([c[lo:min(lo + CSV_CHUNK_ROWS, stop)] for c in columns])
        f.write(floatfmt.rows(table, first_index=lo))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = generators.generator_kind(args.generator)
    n_max = _n_max_or_default(args.n_max, kind)
    values = generators.generate_array(args.generator, n_max)
    if kind == "real":
        text = generators.real_sequence_text(values)
    else:
        text = generators.ifn_sequence_text(*values)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with _writing(args.out):
            Path(args.out).write_text(text)
    return 0


def _check_thresholds(command: str, tol: float, theta: float) -> None:
    """--tol is a multiplicative tolerance (> 1) for analyze and an
    absolute one on mu and nu (> 0) for ifn-analyze; --theta bounds the
    condition estimates (>= 1). Both must be finite."""
    least = 1.0 if command == "analyze" else 0.0
    if not (math.isfinite(tol) and tol > least):
        raise ConfigError(
            f"--tol must be a finite real > {least:g} for {command}, got {tol!r}"
        )
    if not (math.isfinite(theta) and theta >= 1.0):
        raise ConfigError(f"--theta must be a finite real >= 1, got {theta!r}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    _check_thresholds(args.command, args.tol, args.theta)
    return RunConfig(
        command=args.command,
        generator=args.generator,
        input_path=getattr(args, "infile", None),
        n_max=args.n_max,
        weights_spec=args.weights,
        lambda_values=_parse_lambda_spec(args.lambda_grid),
        window_spec=_parse_window_spec(args.window),
        tol=args.tol,
        theta=args.theta,
        mode=getattr(args, "mode", None),
        fmt=_resolve_format(args.format),
        out=args.out,
        timestamp=not args.no_timestamp,
    )


def _summary_lines(doc: dict) -> list[str]:
    lines = [
        f"sequence: kind={doc['sequence']['kind']} length={doc['sequence']['length']} "
        f"source={doc['sequence']['source']}"
    ]
    analysis = doc.get("analysis", {})
    if doc["sequence"]["kind"] == "real":
        lines.append(f"limit estimate: {analysis['limit_estimate']}")
        lines.append(f"gbar verdict: {analysis['gbar']['passed']}")
        t = analysis["tauber"]
        lines.append(
            f"tauber: con1={t['con1_estimate']} con2={t['con2_estimate']} "
            f"slow_osc={t['slow_osc_estimate']} landau={t['landau_bound_estimate']} "
            f"recovery={t['recovery_verdict']}"
        )
    else:
        lines.append(f"mode: {analysis['mode']}")
        lines.append(f"xi estimate: {analysis['xi_estimate']}")
        lines.append(f"mean verdict: {analysis['mean_verdict']['passed']}")
        lines.append(f"plain convergence: {analysis['plain_convergence']}")
        lines.append(f"recovery: {analysis['tauber']['recovery_verdict']}")
    if "weights" in doc:
        lines.append(f"weights sva verdict: {doc['weights']['sva']['verdict']}")
    return lines


def _curves_csv(doc: dict) -> str:
    """The report's per-lambda curves as 'section,lambda,value' rows."""
    rows = ["section,lambda,value"]
    curves = {}
    analysis = doc.get("analysis", {})
    if doc["sequence"]["kind"] == "real":
        curves = analysis.get("tauber", {}).get("curves", {})
    else:
        for label, comp in analysis.get("tauber", {}).get("components", {}).items():
            for name, curve in comp.get("curves", {}).items():
                curves[f"{label}.{name}"] = curve
    for section in sorted(curves):
        for lam in sorted(curves[section], key=float):
            rows.append(f"{section},{lam},{curves[section][lam]}")
    return "\n".join(rows) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.infile).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.infile}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"report {args.infile} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"report {args.infile} does not carry schema_version={SCHEMA_VERSION}"
        )
    # Everything is read before anything is printed or written.
    try:
        lines = _summary_lines(doc)
        if args.out:
            fmt = _resolve_format(args.format)
            text = dumps_document(doc) if fmt == "json" else _curves_csv(doc)
    except KeyError as exc:
        raise ConfigError(f"report {args.infile} lacks the key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"report {args.infile} is malformed: {exc}") from None
    for line in lines:
        print(line)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmt",
        description=(
            "Weighted geometric mean convergence diagnostics for positive "
            "sequences and intuitionistic fuzzy number sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize a named sequence to a file")
    gen.add_argument("--generator", required=True, help="e.g. ex2 or constant:c=3")
    gen.add_argument("--n-max", type=int, default=None, help="last index (inclusive)")
    gen.add_argument("--out", default=None, help="output file (stdout if omitted)")

    def add_analysis_flags(p: argparse.ArgumentParser, tol_default: float) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--generator", default=None, help="built-in sequence id")
        src.add_argument("--in", dest="infile", default=None, help="sequence file")
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--weights", default="ones")
        p.add_argument("--lambda-grid", default=None, help="comma-separated lambdas")
        p.add_argument("--window", default=None, help="start:end (inclusive)")
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--theta", type=float, default=1.05)
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--out", default=None)
        p.add_argument("--no-timestamp", action="store_true")

    ana = sub.add_parser("analyze", help="mean transform + recovery diagnostics")
    add_analysis_flags(ana, tol_default=1.01)

    ifa = sub.add_parser("ifn-analyze", help="IFN means + verdicts + diagnostics")
    add_analysis_flags(ifa, tol_default=1e-3)
    ifa.add_argument("--mode", choices=("oplus", "otimes"), default="oplus")

    rep = sub.add_parser("report", help="summarize or convert a JSON report")
    rep.add_argument("--in", dest="infile", required=True)
    rep.add_argument("--format", default=None, choices=("csv", "json"))
    rep.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "report":
            return _cmd_report(args)
        config = _config_from_args(args)
        result = run_real(config) if args.command == "analyze" else run_ifn(config)
        _emit(result, config)
        return 0
    except (ConfigError, GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
