"""Run `gmt` once in this process with every layer's public functions
wrapped in spans, then write the spans to a JSON file.

    python3 trace_child.py --src SRC --spans OUT.json -- <gmt args...>

The wrappers are installed from outside the package: each target
function is replaced at every module binding that holds it, because
callers resolve names in different places (`cli` imports
`weighted_geo_means` by name, `tauber` imports `log_array`, `ifn`
imports `recoverability_report`). A target missing from the package is
recorded as absent, never an error. Spans carry name, start, end,
parent, invocation id and the process's ru_maxrss at both ends.
"""

import argparse
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path


def _split(param, names):
    """Span name chosen by one argument's value, e.g. backward=True."""

    def namer(bound):
        return names[bound.arguments.get(param, bound.signature.parameters[param].default)]

    return namer


# (module, function, span name or namer). The span's layer is the part
# of its name before the first dot.
TARGETS = [
    ("generators", "generate", "generators.generate"),
    ("generators", "read_real_sequence", "generators.read"),
    ("generators", "read_ifn_sequence", "generators.read"),
    ("mcore", "log_array", "mcore.log_array"),
    ("mcore", "from_log_array", "mcore.from_log_array"),
    ("mcore", "star_converges_to", "mcore.star_converges_to"),
    ("gmean", "weighted_geo_means", "gmean.weighted_geo_means"),
    ("gmean", "transform_log_values", "gmean.transform_log_values"),
    ("gmean", "gbar_limit_estimate", "gmean.gbar_limit_estimate"),
    ("cli", "build_weights", "weights.build"),
    ("weights", "sva_plus_estimate", "weights.sva_plus_estimate"),
    ("tauber", "slow_oscillation_curve",
     _split("backward", {False: "tauber.slow_osc_forward", True: "tauber.slow_osc_backward"})),
    ("tauber", "tauber_condition_curve",
     _split("side", {1: "tauber.condition_curve.side1", 2: "tauber.condition_curve.side2"})),
    ("tauber", "landau_estimates", "tauber.landau_estimates"),
    ("tauber", "recoverability_report", "tauber.recoverability_report"),
    ("ifn", "ifwa_means", "ifn.means"),
    ("ifn", "ifwg_means", "ifn.means"),
    ("ifn", "oplus_convergence_check", "ifn.convergence_check"),
    ("ifn", "otimes_convergence_check", "ifn.convergence_check"),
    ("ifn", "oplus_sandwich_holds", "ifn.sandwich_holds"),
    ("ifn", "otimes_sandwich_holds", "ifn.sandwich_holds"),
    ("ifn", "np_oplus_verdict", "ifn.mean_verdict"),
    ("ifn", "gp_otimes_verdict", "ifn.mean_verdict"),
    ("ifn", "ifn_tauber_report", "ifn.ifn_tauber_report"),
    ("cli", "run_real", "cli.run"),
    ("cli", "run_ifn", "cli.run"),
    ("cli", "dumps_document", "cli.dumps_document"),
    ("cli", "main", "cli.main"),
]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters = {"generators.elements": 0, "generators.in_bytes": 0}
        self.invocation = -1
        self.absent: list[str] = []

    def wrap(self, fn, namer, fallback: str):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer
            if callable(namer):
                try:
                    name = namer(sig.bind(*args, **kwargs))
                except (TypeError, KeyError):
                    name = fallback
            if name == "cli.main":
                tracer.invocation += 1
            span = {
                "id": len(tracer.spans),
                "parent": tracer.stack[-1] if tracer.stack else None,
                "name": name,
                "invocation": tracer.invocation,
                "rss_start_kb": _maxrss_kb(),
                "start": time.perf_counter(),
            }
            tracer.spans.append(span)
            tracer.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_kb"] = _maxrss_kb()
                tracer.stack.pop()
            if name == "generators.generate":
                tracer.counters["generators.elements"] += len(result)
            elif name == "generators.read":
                path = args[0] if args else next(iter(kwargs.values()))
                tracer.counters["generators.in_bytes"] += os.path.getsize(path)
            return result

        return wrapper

    def install(self, package: str = "gmtauber") -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        for module_name, attr, namer in TARGETS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, namer, f"{module_name}.{attr}")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("gmt_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    gmt_args = args.gmt_args[1:] if args.gmt_args[:1] == ["--"] else args.gmt_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gmtauber.cli

    if src not in Path(gmtauber.__file__).resolve().parents:
        print(f"error: imported gmtauber from {gmtauber.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    code = gmtauber.cli.main(gmt_args)
    Path(args.spans).write_text(json.dumps({
        "exit_code": code,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "absent": tracer.absent,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
