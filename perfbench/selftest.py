"""Self-test of the benchmark, at a problem size that runs in seconds.

    python3 perfbench/selftest.py

It checks that the reference's block extrema agree with a scan, that
every workload passes its output check through the driver (fail_rate
0), that corrupted reports are counted as failed while an unknown added
field is not, that the traced run has spans in every layer module, that
the result line carries exactly the metrics BENCHMARK.json names, and
that the driver fails without a result where the package is missing.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def brute_extrema(x: np.ndarray):
    """Scan every block: the oracle for the reference's block extrema."""

    def extrema(lo, hi):
        blocks = [x[a + 1 : b + 1] for a, b in zip(lo, hi)]
        return np.array([v.max() for v in blocks]), np.array([v.min() for v in blocks])

    return extrema


def check_extrema() -> None:
    rng = np.random.default_rng(SEED)
    n = np.arange(400, dtype=np.float64)
    monotone = {
        "ex1": np.where(n % 2 == 0, n + 1.0, -(n + 1.0)),
        "exp-decay": 1.3 / (n + 1.0),
    }
    lo = rng.integers(0, 300, 500)
    hi = lo + rng.integers(1, 99, 500)
    for name, x in monotone.items():
        want = brute_extrema(x)(lo, hi)
        got = workloads.parity_monotone_extrema(x)(lo, hi)
        assert all(np.array_equal(a, b) for a, b in zip(want, got)), name
    x = rng.normal(size=400)
    want = brute_extrema(x)(lo, hi)
    got = workloads.sparse_table_extrema(x, 100)(lo, hi)
    assert all(np.array_equal(a, b) for a, b in zip(want, got)), "sparse table"


def _edit_report(edit):
    def tamper(case: workloads.Case) -> None:
        doc = json.loads(case.report.read_text())
        edit(doc)
        case.report.write_text(json.dumps(doc))

    return tamper


def _shift_limit(doc):
    doc["analysis"]["limit_estimate"]["log"] += 1e-6


def _flip_recovery(doc):
    tauber = doc["analysis"]["tauber"]
    tauber["recovery_verdict"] = not tauber["recovery_verdict"]


def _drop_csv_row(case: workloads.Case) -> None:
    data = case.csv.read_bytes()
    case.csv.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])


CORRUPTIONS = {
    "analyze-bulk": _edit_report(_shift_limit),
    "analyze-diag": _edit_report(_flip_recovery),
    "ifn-file-csv": _drop_csv_row,
}


def _add_field(doc):
    doc["analysis"]["field_from_a_later_schema"] = {"witness": 3}


def check_workload(name: str) -> set[str]:
    result, _ = run.bench(name, SEED, 0.1, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0, (name, result)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert result["metrics"]["ok_rate"]["value"] == 1.0

    result, _ = run.bench(name, SEED, 0.1, False, "tiny", _edit_report(_add_field))
    assert result["failed"] == 0, (name, "an unknown field counted as failure")

    result, _ = run.bench(name, SEED, 0.1, False, "tiny", CORRUPTIONS[name])
    workload_runs = result["attempted"] - (run.SETUP_SAMPLES + 1)
    assert result["failed"] == workload_runs >= 1, (name, result)
    assert not result["correct"]

    result, record = run.bench(name, SEED, 0.1, trace=True, scale="tiny")
    assert result["correct"], (name, record["invocations"][-1])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert not record["absent"], record["absent"]
    return {s["name"].split(".")[0] for s in record["spans"]}


def check_cli_contract() -> None:
    argv = [sys.executable, "perfbench/run.py", "--workload", "analyze-diag",
            "--seed", "1", "--seconds", "0.1", "--trace", "0", "--scale", "tiny"]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        argv[-6:] = ["--seconds", "1", "--trace", "0", "--scale", "full"]
        out = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and '"metrics"' not in out.stdout, out
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_extrema()
    seen = set()
    for name in workloads.WORKLOADS:
        modules = check_workload(name)
        print(f"{name}: ok, traced modules {sorted(modules)}")
        seen |= modules
    missing = set(run.LAYER_MODULES) - seen
    assert not missing, f"no spans from {missing}"
    check_cli_contract()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
