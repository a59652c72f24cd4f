"""Benchmark of the `gmt analyze` / `gmt ifn-analyze` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it measures the package under `src/` next to this
directory. Each invocation is a fresh `python -m gmtauber ...` child,
run strictly one at a time from this single-threaded driver, so the
numbers are what a user of the CLI waits for. Wall time comes from the
driver's clock and CPU time and peak RSS from the child's `os.wait4`
rusage. Every report is checked against a numpy reference computed
before timing starts (see workloads.py).

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries per-layer metrics from one extra traced run
(see trace_child.py). A run record with the platform, the exact argv of
every invocation and all samples goes to .bench_out/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A gmt invocation that does no pipeline work: interpreter start plus
# `import gmtauber`, which every workload invocation pays as well.
SETUP_ARGV = ["generate", "--generator", "ex2", "--n-max", "0"]
SETUP_OUTPUT = f"log:\n{math.log(2.0)!r}\n"
SETUP_SAMPLES = 7

LAYER_MODULES = ("generators", "mcore", "weights", "gmean", "tauber", "ifn", "cli")
RSS_MODULES = ("generators", "gmean", "tauber", "ifn", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], workdir: Path, check) -> Invocation:
    """Run one child to completion and check what it wrote."""
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code == 0:
        problems = check()
    else:
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip()
        problems = [f"exit {code}: {tail[-300:]}"]
    return Invocation(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=code,
        problems=problems,
    )


def gmt(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gmtauber", *args]


def measure_setup(workdir: Path) -> list[Invocation]:
    """One warm-up (compiles the .pyc files) plus SETUP_SAMPLES timed runs."""
    out = workdir / "setup.txt"

    def check() -> list[str]:
        text = out.read_text() if out.exists() else None
        return [] if text == SETUP_OUTPUT else [f"generate wrote {text!r}"]

    argv = gmt(SETUP_ARGV + ["--out", str(out)])
    return [spawn(argv, workdir, check) for _ in range(SETUP_SAMPLES + 1)]


def measure(case: workloads.Case, workdir: Path, seconds: float, tamper=None) -> list[Invocation]:
    """Invoke the workload back to back for about `seconds`.

    A new invocation starts only while it is expected to end no more
    than half an invocation past the deadline. `tamper`, if given, edits
    the outputs before the check (the self-test uses it).
    """

    def check() -> list[str]:
        if tamper is not None:
            tamper(case)
        return workloads.check_outputs(case)

    runs: list[Invocation] = []
    start = time.perf_counter()
    while True:
        runs.append(spawn(gmt(case.argv), workdir, check))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in runs)
        if elapsed + 0.5 * typical >= seconds:
            return runs


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(setup: list[Invocation], runs: list[Invocation]) -> dict:
    timed_setup = setup[1:]
    attempted = setup + runs
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(r.wall_s for r in timed_setup),
        "ok_rate": sum(r.ok for r in attempted) / len(attempted),
    }


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_rate": "ratio"}


# ---------------------------------------------------------------------------
# Traced run


def traced(case: workloads.Case, workdir: Path) -> tuple[Invocation, dict]:
    """One in-process run of cli.main under trace_child.py's wrappers."""
    spans_path = workdir / "spans.json"
    argv = [
        sys.executable, str(HERE / "trace_child.py"), "--src", str(SRC),
        "--spans", str(spans_path), "--", *case.argv,
    ]
    inv = spawn(argv, workdir, lambda: workloads.check_outputs(case))
    trace = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": [], "counters": {}, "absent": []}
    trace["out_bytes"] = sum(p.stat().st_size for p in case.outputs() if p.exists())
    return inv, trace


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(trace: dict, e2e: dict) -> dict:
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outermost(pred):
        return [s for s in spans if pred(s) and not any(pred(a) for a in ancestors(s))]

    def total(*names):
        return sum(s["end"] - s["start"] for s in outermost(lambda s: s["name"] in names))

    def self_s(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def calls(*names):
        return sum(s["name"] in names for s in spans)

    def rss_rise(module):
        top = outermost(lambda s: s["name"].split(".")[0] == module)
        return sum(s["rss_end_kb"] - s["rss_start_kb"] for s in top) / 1024.0

    main_s = total("cli.main")
    m = {
        "generators.generate_s": total("generators.generate"),
        "generators.elements": trace["counters"].get("generators.elements", 0),
        "generators.read_s": total("generators.read"),
        "generators.in_bytes": trace["counters"].get("generators.in_bytes", 0),
        "mcore.log_array_s": total("mcore.log_array"),
        "mcore.log_array_calls": calls("mcore.log_array"),
        "mcore.from_log_array_s": total("mcore.from_log_array"),
        "mcore.from_log_array_calls": calls("mcore.from_log_array"),
        "mcore.star_converges_to_s": total("mcore.star_converges_to"),
        "gmean.weighted_geo_means.self_s": self_s("gmean.weighted_geo_means"),
        "gmean.weighted_geo_means_calls": calls("gmean.weighted_geo_means"),
        "gmean.transform_log_values_s": total("gmean.transform_log_values"),
        "gmean.transform_log_values_calls": calls("gmean.transform_log_values"),
        "gmean.gbar_limit_estimate.self_s": self_s("gmean.gbar_limit_estimate"),
        "weights.build_s": total("weights.build"),
        "weights.sva_plus_estimate_s": total("weights.sva_plus_estimate"),
        "tauber.slow_osc_forward_s": total("tauber.slow_osc_forward"),
        "tauber.slow_osc_backward_s": total("tauber.slow_osc_backward"),
        "tauber.condition_curve_s": total("tauber.condition_curve.side1", "tauber.condition_curve.side2"),
        "tauber.landau_estimates_s": total("tauber.landau_estimates"),
        "tauber.recoverability_report.self_s": self_s("tauber.recoverability_report"),
        "tauber.recoverability_report_calls": calls("tauber.recoverability_report"),
        "ifn.means_s": total("ifn.means"),
        "ifn.means_calls": calls("ifn.means"),
        "ifn.convergence_check_s": total("ifn.convergence_check"),
        "ifn.sandwich_holds_s": total("ifn.sandwich_holds"),
        "ifn.mean_verdict.self_s": self_s("ifn.mean_verdict"),
        "ifn.ifn_tauber_report.self_s": self_s("ifn.ifn_tauber_report"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.dumps_document_s": total("cli.dumps_document"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.out_bytes": trace["out_bytes"],
    }
    for module in RSS_MODULES:
        m[f"{module}.rss_rise_mb"] = rss_rise(module)
    # cli.main's span excludes interpreter start and import, which the
    # untraced wall time includes and setup_s measures on its own.
    m["trace.overhead_s"] = main_s - (e2e["wall_s"] - e2e["setup_s"])
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


def module_self_times(trace: dict) -> dict:
    own = self_times(trace["spans"])
    out = {m: 0.0 for m in LAYER_MODULES}
    for s in trace["spans"]:
        module = s["name"].split(".")[0]
        out[module] = out.get(module, 0.0) + own[s["id"]]
    return out


# ---------------------------------------------------------------------------
# Run record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def platform_record() -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def inv_record(r: Invocation) -> dict:
    return {
        "argv": r.argv, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
        "peak_rss_mb": r.peak_rss_mb, "exit_code": r.exit_code, "problems": r.problems,
    }


# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
          tamper=None) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, run record)."""
    if not (SRC / "gmtauber" / "__init__.py").is_file():
        raise BenchError(f"no gmtauber package under {SRC}")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{scale}-{os.getpid()}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        case = workloads.prepare(workload, seed, scale, workdir)
        setup = measure_setup(workdir)
        runs = measure(case, workdir, seconds, tamper)
        attempted = setup + runs
        e2e = end_to_end(setup, runs)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "scale": scale, "params": case.params, "argv": gmt(case.argv),
            "setup_argv": setup[0].argv, **platform_record(),
            "wall_s": quartiles([r.wall_s for r in runs]),
            "cpu_s": quartiles([r.cpu_s for r in runs]),
            "peak_rss_mb": quartiles([r.peak_rss_mb for r in runs]),
            "setup_s": quartiles([r.wall_s for r in setup[1:]]),
            "cpu_per_wall": e2e["cpu_s"] / e2e["wall_s"],
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
        if trace:
            inv, spans = traced(case, workdir)
            attempted.append(inv)
            layers = layer_metrics(spans, e2e)
            metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
            record["absent"] = spans.get("absent", [])
            record["module_self_s"] = module_self_times(spans)
            record["spans"] = spans["spans"]
        record["invocations"] = [inv_record(r) for r in attempted]
        failed = sum(not r.ok for r in attempted)
        record["fail_rate"] = failed / len(attempted)
        result = {
            "correct": failed == 0,
            "attempted": len(attempted),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (OUT / f"{tag}.json").write_text(json.dumps({**record, "result": result}, indent=1))
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="problem size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    try:
        result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (BenchError, workloads.AmbiguousInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = record["wall_s"]
    print(
        f"{args.workload} seed={args.seed}: wall {wall['median']:.3f}s "
        f"[q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f}, n={wall['n']}] "
        f"cpu/wall {record['cpu_per_wall']:.3f} fail_rate {record['fail_rate']:.3f}"
    )
    if not result["correct"]:
        for inv in record["invocations"]:
            for problem in inv["problems"][:5]:
                print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
