"""Command line front end: sequence generators, analysis pipelines and
deterministic report emission.

Subcommands: generate, analyze, ifn-analyze, report. Exit codes: 0 on
success, 2 on configuration errors (unknown generator, bad flags or
files, a length no memory holds) and failed writes to --out or stdout,
3 on numerical precondition failures inside a pipeline. Every float
table goes out through floatfmt.write_rows.
"""

import argparse
import contextlib
import datetime
import io
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .mcore import LogReal, MTolerance, TailWindow
from .weights import (
    LambdaGrid,
    WeightSequence,
    default_report_window,
    sva_plus_estimate,
    usable_end,
)
from .gmean import _log_means, _prefix_gbar_verdict, _prefix_sums
from .tauber import ReportThresholds, TauberReport, _prefix_fields, _report
from .ifn import (
    IFNRows,
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


def _jsonable(value):
    """The report form of a result value, directed by its type.

    A dataclass becomes a dict keyed by its field names, a float dict key
    its repr, a tuple or list a list, and a float passes through _num.
    Three exceptions keep the document's established keys: a LogReal is
    {"log", "value"}, a TailWindow {"start", "end"}, and a TauberReport's
    skipped lambdas are repr strings like the keys of its curves.
    """
    if isinstance(value, LogReal):
        return {"log": _num(value.log_value), "value": _num(value.value)}
    if isinstance(value, TailWindow):
        return {"start": value.start_index, "end": value.end_index}
    if is_dataclass(value):
        doc = {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, TauberReport):
            doc["skipped_lambdas"] = {
                name: [repr(lam) for lam in lams]
                for name, lams in value.skipped_lambdas.items()
            }
        return doc
    if isinstance(value, dict):
        return {
            repr(k) if isinstance(k, float) else k: _jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return _num(value)


# ---------------------------------------------------------------------------
# Config: the parsed argparse namespace. The flag parsers below are its
# `type=` functions; they raise ConfigError, which argparse passes through
# (a ValueError it would rewrite into its own "invalid value" message).


def _parse_window_spec(spec: str) -> tuple[int, int]:
    """--window 'start:end' as (start, end)."""
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


def _parse_lambda_spec(spec: str) -> LambdaGrid:
    """--lambda-grid 'l1,l2,...' as a LambdaGrid."""
    try:
        values = [float(v) for v in spec.split(",")]
    except ValueError:
        raise ConfigError(f"lambda grid must be comma-separated reals, got {spec!r}")
    try:
        return LambdaGrid.of(values)
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid: {exc}")


def _echo(args: argparse.Namespace) -> dict:
    """The report's `config` block: the flags of an analysis run."""
    return {
        "command": args.command,
        "generator": args.generator,
        "input": args.infile,
        "n_max": args.n_max,
        "weights": args.weights,
        "lambda_grid": list(args.lambda_grid.values) if args.lambda_grid else "default",
        "window": "%d:%d" % args.window if args.window else "last-half",
        "tol": args.tol,
        "theta": args.theta,
        "mode": getattr(args, "mode", None),
        "format": args.format,
        "out": args.out,
    }


def build_weights(spec: str, length: int) -> WeightSequence:
    """Weight family by name: ones, harmonic, alternating:a,b, custom:<file>."""
    name, colon, tail = spec.partition(":")
    if name in ("ones", "harmonic") and colon:
        raise ConfigError(f"{name} weights take no parameters, got {spec!r}")
    try:
        if name == "ones":
            return WeightSequence.ones(length)
        if name == "harmonic":
            return WeightSequence.harmonic(length)
        if name == "alternating":
            parts = tail.split(",")
            if len(parts) != 2:
                raise ConfigError(f"alternating weights need a,b — got {spec!r}")
            return WeightSequence.alternating(length, float(parts[0]), float(parts[1]))
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
    args: argparse.Namespace, expect_kind: str
) -> tuple[np.ndarray | IFNRows, str]:
    """A real sequence as its float64 log array, an IFN one as IFNRows."""
    if args.generator is not None:
        kind = generators.generator_kind(args.generator)
        if kind != expect_kind:
            raise ConfigError(
                f"generator {args.generator!r} produces a {kind} sequence; "
                f"this subcommand expects {expect_kind}"
            )
        n_max = _n_max_or_default(args.n_max, kind)
        values = generators.generate_array(args.generator, n_max)
        return (values if kind == "real" else IFNRows(values)), args.generator
    if args.n_max is not None:
        raise ConfigError("--n-max applies to generated sequences, not --in files")
    path = args.infile
    try:
        if expect_kind == "real":
            return generators.read_real_logs(path), str(path)
        return generators.read_ifn_sequence(path), str(path)
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"malformed sequence file {path}: {exc}")


def _base_document(args: argparse.Namespace, kind: str, length: int, source: str) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _echo(args),
        "sequence": {"kind": kind, "length": length, "source": source},
    }
    if not args.no_timestamp:
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    return doc


def _windows_for(
    args: argparse.Namespace, length: int, grid: LambdaGrid
) -> tuple[TailWindow, TailWindow]:
    """The user-facing verdict window, and the lambda-safe tauber window.

    Without --window the tauber window is the library default. A given
    window is intersected with the usable range [0, bound], where
    bound = (length-1)/max(lambda) keeps every lambda_n in the sequence.
    Either must contain an index n >= 1 for the Landau ratio.
    """
    if args.window is None:
        try:
            return TailWindow.last_half(length), default_report_window(length, grid)
        except ValueError as exc:
            raise ConfigError(
                f"{exc}: raise --n-max (or use a longer --in file) or lower "
                "the largest --lambda-grid value"
            )
    start, end = args.window
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
    columns: tuple[np.ndarray, ...]  # per-index columns after n, for --format csv
    header: tuple[str, ...]


def _inputs(args: argparse.Namespace, kind: str) -> tuple:
    """(seq, source, grid, w, verdict_window, tauber_window) of a run."""
    seq, source = _load_sequence(args, kind)
    grid = args.lambda_grid or LambdaGrid.default()
    w = build_weights(args.weights, len(seq))
    return (seq, source, grid, w, *_windows_for(args, len(seq), grid))


def run_real(args: argparse.Namespace) -> RunResult:
    x, source, grid, w, verdict_window, tauber_window = _inputs(args, "real")
    tol = MTolerance(args.tol)
    # One S serves the verdict, the means and the report, and is dropped
    # before the report's slow-oscillation curves. Only the CSV reads
    # every log-mean; the document reads the verdict window's and the
    # last 10.
    S, P = _prefix_sums(x, w), w.P[: x.size]
    gbar = _prefix_gbar_verdict(S, P, tol, verdict_window)
    means = _log_means(S, P) if args.format == "csv" else _log_means(S[-10:], P[-10:])
    prefix_fields = _prefix_fields(x, S, P, grid, tauber_window, tol)
    del S
    thresholds = ReportThresholds(theta=args.theta, gbar_tol=tol)
    tauber = _report(x, *prefix_fields, grid, tauber_window, thresholds)
    sva = sva_plus_estimate(w, grid, tauber_window)

    doc = _base_document(args, "real", x.size, source)
    doc["sequence"]["tail_log"] = x[-10:].tolist()
    doc["weights"] = {"spec": args.weights, "sva": _jsonable(sva)}
    doc["analysis"] = {
        "limit_estimate": _jsonable(gbar.limit),
        "gbar": _jsonable(gbar),
        "means_tail_log": means[-10:].tolist(),
        "tauber": _jsonable(tauber),
    }
    return RunResult(doc=doc, columns=(x, means), header=("n", "log_u", "log_w"))


def run_ifn(args: argparse.Namespace) -> RunResult:
    seq, source, grid, w, verdict_window, tauber_window = _inputs(args, "ifn")
    mode = args.mode
    if mode == "oplus":
        means, check = ifwa_means(seq, w), oplus_convergence_check
    else:
        means, check = ifwg_means(seq, w), otimes_convergence_check
    xi_hat = means[verdict_window.end_index]
    verdict = mean_verdict(means, check, xi_hat, args.tol, verdict_window)
    plain = check(seq, xi_hat, args.tol, verdict_window)

    thresholds = ReportThresholds(theta=args.theta)
    tauber = ifn_tauber_report(seq, w, grid, tauber_window, mode, thresholds)
    sva = sva_plus_estimate(w, grid, tauber_window)

    doc = _base_document(args, "ifn", len(seq), source)
    doc["sequence"]["tail"] = _jsonable(list(seq[-10:]))
    doc["weights"] = {"spec": args.weights, "sva": _jsonable(sva)}
    doc["analysis"] = {
        "mode": mode,
        "xi_estimate": _jsonable(xi_hat),
        "mean_verdict": _jsonable(verdict),
        "plain_convergence": plain,
        "means_tail": _jsonable(list(means[-10:])),
        "tauber": _jsonable(tauber),
    }
    return RunResult(
        doc=doc,
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
def _writing(path: Path | str | None):
    """Report an OSError while writing `path` for --out, or stdout where path
    is None (flushed here; a BrokenPipeError, its reader leaving early, goes
    through to the `gmt` entry), as a ConfigError naming what failed."""
    try:
        yield
        if path is None:
            sys.stdout.flush()
    except OSError as exc:
        if path is None and isinstance(exc, BrokenPipeError):
            raise
        where = "stdout" if path is None else f"{path} for --out"
        raise ConfigError(f"cannot write {where}: {exc}") from None


def _emit(result: RunResult, args: argparse.Namespace) -> None:
    text = dumps_document(result.doc)
    if args.format == "json":
        with _writing(args.out):
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
        return
    # csv (main has checked --out): per-index rows plus a sidecar JSON
    from . import floatfmt  # compiled on first use: runs that print no floats skip it

    out, sidecar = Path(args.out), Path(args.out + ".json")
    with _writing(out), out.open("wb") as f:
        f.write((",".join(result.header) + "\n").encode("ascii"))
        floatfmt.write_rows(f, result.columns, index=True)
    with _writing(sidecar):
        sidecar.write_text(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = generators.generator_kind(args.generator)
    n_max = _n_max_or_default(args.n_max, kind)
    values = generators.generate_array(args.generator, n_max)
    if args.out is None and hasattr(sys.stdout, "buffer"):
        with _writing(None):
            sys.stdout.flush()  # what the text layer holds goes out first
            generators.write_sequence(sys.stdout.buffer, values)
    elif args.out is None:  # a text stream with no .buffer, such as io.StringIO
        buf = io.BytesIO()
        generators.write_sequence(buf, values)
        with _writing(None):
            sys.stdout.write(buf.getvalue().decode("ascii"))
    else:
        with _writing(args.out), open(args.out, "wb") as f:
            generators.write_sequence(f, values)
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
            text = dumps_document(doc) if args.format == "json" else _curves_csv(doc)
    except KeyError as exc:
        raise ConfigError(f"report {args.infile} lacks the key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"report {args.infile} is malformed: {exc}") from None
    with _writing(None):
        sys.stdout.write("".join(f"{line}\n" for line in lines))
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
        p.add_argument(
            "--lambda-grid", type=_parse_lambda_spec, help="comma-separated lambdas"
        )
        p.add_argument("--window", type=_parse_window_spec, help="start:end (inclusive)")
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--theta", type=float, default=1.05)
        p.add_argument("--format", default="json", choices=("csv", "json"))
        p.add_argument("--out", default=None)
        p.add_argument("--no-timestamp", action="store_true")

    ana = sub.add_parser("analyze", help="mean transform + recovery diagnostics")
    add_analysis_flags(ana, tol_default=1.01)

    ifa = sub.add_parser("ifn-analyze", help="IFN means + verdicts + diagnostics")
    add_analysis_flags(ifa, tol_default=1e-3)
    ifa.add_argument("--mode", choices=("oplus", "otimes"), default="oplus")

    rep = sub.add_parser("report", help="summarize or convert a JSON report")
    rep.add_argument("--in", dest="infile", required=True)
    rep.add_argument("--format", default="json", choices=("csv", "json"))
    rep.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        if getattr(args, "format", None) == "csv" and args.out is None:
            raise ConfigError("--format csv needs --out")
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.format == "csv" and Path(args.out + ".json").is_dir():
            raise ConfigError(f"cannot write {args.out}.json for --out: Is a directory")
        _check_thresholds(args.command, args.tol, args.theta)
        result = run_real(args) if args.command == "analyze" else run_ifn(args)
        _emit(result, args)
        return 0
    except (ConfigError, GeneratorError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # `python -m gmtauber.cli` is the `gmt` entry too
    from gmtauber.__main__ import run

    sys.exit(run())
