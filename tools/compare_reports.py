"""Check that two source trees of gmtauber write byte-identical outputs.

    python tools/compare_reports.py BASE_SRC NEW_SRC [--bench-seed N ...]

BASE_SRC and NEW_SRC are the `src` directories of the two trees. A fixed
list of small `gmt` commands (every generator through `generate` and
`analyze`/`ifn-analyze`, a `log:` file, a plain-decimal file, an IFN
file, both IFN modes and `--format csv`, `analyze --format csv` at
50001 indices, of the plain-decimal file and of `linear` at 20001
indices (the `log_u` column of every value that `math.log` takes), of
`ex1` at 20001 indices with a narrow `--window` (every log-mean from the
one shared `S`), a narrow window with `--lambda-grid 0.5,0.75` (backward
blocks that share one index),
`ifn-analyze --format csv` and `generate --out` of a real and an IFN
sequence at 20001 indices, which the row writer splits across processes
where two CPUs are usable, `--theta 3` for `analyze` and `ifn-analyze
--mode otimes`, IFN files on the simplex boundary in both modes, an IFN file that only the per-line
reader takes: CRLF endings, whitespace-only lines and `2_5e-2` tokens,
a `log:` file and a plain file of the same kind (the `log:` header
with trailing spaces, after blank lines), a `log:` file with CR-only
line ends and blank lines before a header with trailing blanks, which
the C pass reads after the header line, a plain file whose bad value
comes before a bad token (exit 2), custom weights from a CRLF file with
blank lines, two runs that skip lambdas: a lambda whose blocks are all empty in
con1 and slow_osc_forward, and custom weights p_0 = 1 followed by zeros,
which skip every condition lambda and give `inf` estimates, and a `log:`
file of edge values through `analyze --format csv`, whose `log_u`
column reaches every branch of the CSV float formatter: signed zeros,
subnormals, the limits of the positional layout, two- and three-digit
exponents, integers and dyadic values) runs once
under each tree in the same scratch directory, with
`--no-timestamp` wherever a report is written. The exit code, stdout,
stderr and every output file must match byte for byte. Each `--bench-seed`
adds the three benchmark workloads of `perfbench/workloads.py` at full
size for that seed.

Exit status: 0 when everything matches, 1 naming the first command and
the byte offset that differ, 2 on a usage error.
"""

import argparse
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REAL_GENERATORS = ("ex1", "ex2", "constant:c=3", "exp-decay:c=2", "linear")
IFN_GENERATORS = ("nonunique", "ex3-ifn", "ex4-ifn")
ANALYZE_WEIGHTS = {
    "ex1": "harmonic",
    "ex2": "alternating:2,1",
    "constant:c=3": "ones",
    "exp-decay:c=2": "ones",
    "linear": "harmonic",
}
NO_TS = "--no-timestamp"


def _inputs(workdir: Path) -> None:
    """Seeded sequence files shared by both trees."""
    rng = random.Random(20240501)
    logs = [rng.uniform(-3.0, 3.0) / (1 + n) ** 0.5 for n in range(2000)]
    (workdir / "seq_log.txt").write_text("log:\n" + "".join(f"{v!r}\n" for v in logs))
    plain = [rng.uniform(0.5, 2.0) for _ in range(1500)]
    (workdir / "seq_plain.txt").write_text("".join(f"{v!r}\n" for v in plain))
    pairs = []
    for n in range(1200):
        mu = 0.2 + 0.05 * rng.random()
        nu = 0.5 + 0.05 * rng.random()
        pairs.append(f"{mu!r},{nu!r}\n")
    (workdir / "seq_ifn.txt").write_text("".join(pairs))
    for name, lines in _ifn_boundary_files(rng).items():
        (workdir / name).write_text("".join(f"{ln}\n" for ln in lines))
    per_line = []
    for n in range(1200):
        mu = 0.2 + 0.05 * rng.random()
        nu = 0.5 + 0.05 * rng.random()
        if n % 97 == 0:
            per_line.append("  \t")
        mu_text = "2_5e-2" if n % 101 == 0 else repr(mu)
        per_line.append(f"{mu_text},{nu!r}")
    (workdir / IFN_PER_LINE_FILE).write_bytes("".join(f"{ln}\r\n" for ln in per_line).encode())
    for name, header in ((REAL_LOG_PER_LINE_FILE, "log:   "), (REAL_PLAIN_PER_LINE_FILE, None)):
        lines = ["", "  "] + ([header] if header else [])
        for n in range(1500):
            if n % 89 == 0:
                lines.append(" \t ")
            v = rng.uniform(0.5, 2.0)
            lines.append("2_5e-2" if n % 103 == 0 else repr(v if header is None else math.log(v)))
        (workdir / name).write_bytes("".join(f"{ln}\r\n" for ln in lines).encode())
    # A bad value (line 3) before a token only float() would refuse (line 5).
    (workdir / REAL_MALFORMED_FILE).write_text("1.5\n0.75\n-2.0\n1.25\n1.0;2.0\n")
    weights = [f"{0.5 + rng.random()!r}" for _ in range(1200)]
    for n in range(0, 1200, 150):
        weights[n] += "\r\n"
    (workdir / CRLF_WEIGHTS_FILE).write_bytes("".join(f"{w}\r\n" for w in weights).encode())
    (workdir / ZERO_WEIGHTS_FILE).write_text("1\n" + "0\n" * 1000)
    (workdir / EDGE_VALUES_FILE).write_text("log:\n" + "".join(f"{v}\n" for v in EDGE_VALUES) * 40)
    cr_logs = ["", "  ", "log: \t"] + [repr(rng.uniform(-1.0, 1.0)) for _ in range(1500)]
    (workdir / REAL_LOG_CR_FILE).write_bytes("".join(f"{ln}\r" for ln in cr_logs).encode())


# IFN files on the edge of the simplex. "over": pairs with mu + nu in
# (1, 1 + 1e-12], which IFN() divides by mu + nu. "zero-nu"/"zero-mu": a
# -0.0 and a -1e-13 component, clamped to -0.0 and 0.0; each file runs
# in the mode that needs that component positive (exit 3) and in the one
# that does not (its CSV shows the clamped values). "malformed": a line
# that is not a pair (exit 2).
IFN_BOUNDARY_FILES = ("ifn_over.txt", "ifn_zero_nu.txt", "ifn_zero_mu.txt", "ifn_malformed.txt")
# Pairs that float() takes and numpy's C parser does not, so the IFN
# reader falls back to its per-line loop.
IFN_PER_LINE_FILE = "ifn_per_line.txt"
# Real files that only the per-line reader takes: CRLF ends, leading blank
# lines, whitespace-only lines and '2_5e-2' tokens; the 'log:' one has a
# header with trailing spaces.
REAL_LOG_PER_LINE_FILE = "real_log_per_line.txt"
REAL_PLAIN_PER_LINE_FILE = "real_plain_per_line.txt"
# A 'log:' file with CR-only ends and blank lines before a header with
# trailing blanks: the C pass takes its values after the header line.
REAL_LOG_CR_FILE = "real_log_cr.txt"
# A plain file whose first bad line is a value that LogReal.of() rejects.
REAL_MALFORMED_FILE = "real_malformed.txt"
# Custom weights with CRLF ends and a blank line every 150 weights.
CRLF_WEIGHTS_FILE = "w_crlf.txt"
# p_0 = 1 and then zeros: P never moves, so every condition block is skipped.
ZERO_WEIGHTS_FILE = "w_zeros.txt"
# Log values at the edges of repr's layout and of Ryu's branches (exact
# trailing zeros, a power of two's lower bound, subnormals), repeated.
EDGE_VALUES_FILE = "edge_values.txt"
EDGE_VALUES = (
    "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
    "1e-05", "-1e-05", "0.0001", "9.999999999999999e-05", "1e+16", "-1e+16",
    "9999999999999998.0", "1e+22", "1e-100", "1e+100", "-1e+99", "0.5", "3.0", "1024.0",
    "0.125", "-2.5", "9007199254740993.0", "0.1", "0.30000000000000004", "1e+300",
    "-1e+300", "123456789012345678.0",
)


def _ifn_boundary_files(rng: random.Random) -> dict[str, list[str]]:
    def pair(mu: float, nu: float) -> str:
        return f"{mu!r},{nu!r}"

    inner = [pair(0.2 + 0.05 * rng.random(), 0.5 + 0.05 * rng.random()) for _ in range(600)]
    over = []
    for _ in range(600):
        mu = 0.2 + 0.05 * rng.random()
        over.append(pair(mu, 1.0 - mu + 1e-12 * rng.random()))
    mixed = [ln for ab in zip(inner, over) for ln in ab]
    return {
        "ifn_over.txt": mixed,
        "ifn_zero_nu.txt": inner[:300] + ["0.25,-0.0", "0.3,-1e-13"] + inner[300:],
        "ifn_zero_mu.txt": inner[:300] + ["-0.0,0.7", "-1e-13,0.65"] + inner[300:],
        "ifn_malformed.txt": inner[:300] + ["0.25;0.5"] + inner[300:],
    }


def small_cases() -> list[tuple[list[str], list[str]]]:
    """(argv, output files relative to the scratch directory)."""
    cases = []
    for g in REAL_GENERATORS + IFN_GENERATORS:
        cases.append((["generate", "--generator", g, "--n-max", "300"], []))
    cases.append((["generate", "--generator", "ex1", "--n-max", "50", "--out", "gen.txt"], ["gen.txt"]))
    # Three chunks each, so the row writer forks where two CPUs are usable.
    for g in ("ex4-ifn", "exp-decay:c=2"):
        cases.append((
            ["generate", "--generator", g, "--n-max", "20000", "--out", "big.txt"], ["big.txt"]
        ))
    for g in REAL_GENERATORS:
        cases.append((
            ["analyze", "--generator", g, "--n-max", "3000",
             "--weights", ANALYZE_WEIGHTS[g], NO_TS],
            [],
        ))
    cases += [
        (["analyze", "--generator", "ex1", "--weights", "harmonic", "--n-max", "5000",
          "--window", "2000:2255", NO_TS], []),
        (["analyze", "--generator", "ex2", "--n-max", "1000", "--window", "200:800", NO_TS], []),
        (["analyze", "--in", "seq_log.txt", "--weights", "harmonic", NO_TS], []),
        (["analyze", "--in", "seq_plain.txt", "--tol", "1.5", NO_TS], []),
        (["analyze", "--generator", "exp-decay:c=2", "--n-max", "800", "--format", "csv",
          "--out", "r.csv", NO_TS], ["r.csv", "r.csv.json"]),
        (["analyze", "--in", "seq_log.txt", "--format", "json", "--out", "r.json", NO_TS],
         ["r.json"]),
    ]
    # log_w columns long enough to span several of numpy's 8192-element
    # ufunc buffers, so the buffered longdouble divide is compared too.
    for g in ("ex1", "ex2"):
        cases.append((
            ["analyze", "--generator", g, "--weights", ANALYZE_WEIGHTS[g],
             "--n-max", "50000", "--format", "csv", "--out", "long.csv", NO_TS],
            ["long.csv", "long.csv.json"],
        ))
    # The log_u column of every log that math.log takes: a plain file's
    # values and the linear generator's.
    cases += [
        (["analyze", "--in", "seq_plain.txt", "--format", "csv", "--out", "plain.csv", NO_TS],
         ["plain.csv", "plain.csv.json"]),
        (["analyze", "--generator", "linear", "--n-max", "20000", "--weights", "harmonic",
          "--format", "csv", "--out", "lin.csv", NO_TS], ["lin.csv", "lin.csv.json"]),
        # Every log-mean of the CSV, from the S that the narrow window's
        # verdict and report share.
        (["analyze", "--generator", "ex1", "--weights", "harmonic", "--n-max", "20000",
          "--window", "8000:8255", "--format", "csv", "--out", "narrow.csv", NO_TS],
         ["narrow.csv", "narrow.csv.json"]),
        # Backward blocks that all share one index (the core path).
        (["analyze", "--generator", "exp-decay:c=2", "--n-max", "5000", "--lambda-grid",
          "0.5,0.75", "--window", "3000:3099", NO_TS], []),
    ]
    cases += [
        (["ifn-analyze", "--generator", "ex3-ifn", "--n-max", "600", NO_TS], []),
        (["ifn-analyze", "--generator", "ex4-ifn", "--weights", "alternating:1,3",
          "--n-max", "600", "--mode", "otimes", NO_TS], []),
        (["ifn-analyze", "--in", "seq_ifn.txt", "--mode", "oplus", "--lambda-grid",
          "0.99,1.01", NO_TS], []),
        (["ifn-analyze", "--in", "seq_ifn.txt", "--mode", "otimes", "--format", "csv",
          "--out", "i.csv", NO_TS], ["i.csv", "i.csv.json"]),
        # A non-default condition threshold, in both reports that take one.
        (["analyze", "--generator", "ex2", "--n-max", "3000", "--weights", "alternating:2,1",
          "--theta", "3", NO_TS], []),
        (["ifn-analyze", "--generator", "ex4-ifn", "--weights", "alternating:1,3",
          "--n-max", "600", "--mode", "otimes", "--theta", "3", NO_TS], []),
    ]
    cases += [
        (["ifn-analyze", "--generator", "ex4-ifn", "--n-max", "20000", "--format", "csv",
          "--out", "g.csv", NO_TS], ["g.csv", "g.csv.json"]),
        (["ifn-analyze", "--in", IFN_PER_LINE_FILE, "--mode", "otimes", "--lambda-grid",
          "0.99,1.01", "--format", "csv", "--out", "p.csv", NO_TS], ["p.csv", "p.csv.json"]),
    ]
    cases += [
        # lambda = 1.001 leaves every block (n, floor(1.001 n)] with n <= 400 empty.
        (["analyze", "--generator", "exp-decay:c=2", "--n-max", "1000", "--lambda-grid",
          "1.001,0.999,2", "--window", "1:400", NO_TS], []),
        (["analyze", "--generator", "exp-decay:c=2", "--n-max", "1000",
          "--weights", f"custom:{ZERO_WEIGHTS_FILE}", NO_TS], []),
        (["analyze", "--in", EDGE_VALUES_FILE, "--format", "csv", "--out", "e.csv", NO_TS],
         ["e.csv", "e.csv.json"]),
        (["analyze", "--in", REAL_LOG_PER_LINE_FILE, "--weights", "harmonic", NO_TS], []),
        (["analyze", "--in", REAL_PLAIN_PER_LINE_FILE, "--tol", "1.5", NO_TS], []),
        (["analyze", "--in", REAL_LOG_CR_FILE, NO_TS], []),
        (["analyze", "--in", REAL_MALFORMED_FILE, NO_TS], []),
        (["analyze", "--generator", "exp-decay:c=2", "--n-max", "1000",
          "--weights", f"custom:{CRLF_WEIGHTS_FILE}", NO_TS], []),
    ]
    for name in IFN_BOUNDARY_FILES:
        for mode in ("oplus", "otimes"):
            cases.append((
                ["ifn-analyze", "--in", name, "--mode", mode, "--lambda-grid", "0.99,1.01",
                 "--format", "csv", "--out", "b.csv", NO_TS],
                ["b.csv", "b.csv.json"],
            ))
    return cases


def bench_cases(seed: int, workdir: Path) -> list[tuple[list[str], list[str]]]:
    """The benchmark workloads at full size, with inputs under workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cases = []
    for name in workloads.WORKLOADS:
        case = workloads.prepare(name, seed, "full", workdir)
        cases.append((case.argv + [NO_TS], [str(p) for p in case.outputs()]))
    return cases


def run(src: Path, argv: list[str], outputs: list[str], workdir: Path) -> list[tuple[str, bytes]]:
    """Artifacts of one command under one tree; output files are removed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gmtauber", *argv],
        cwd=workdir, env=env, capture_output=True, check=False,
    )
    artifacts = [
        ("exit code", str(proc.returncode).encode()),
        ("stdout", proc.stdout),
        ("stderr", proc.stderr),
    ]
    for name in outputs:
        path = workdir / name
        artifacts.append((name, path.read_bytes() if path.exists() else b"<missing>"))
        path.unlink(missing_ok=True)
    return artifacts


def first_difference(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--bench-seed", type=int, action="append", default=[])
    args = parser.parse_args()
    trees = [args.base_src.resolve(), args.new_src.resolve()]
    for src in trees:
        if not (src / "gmtauber" / "__init__.py").is_file():
            print(f"error: {src} has no gmtauber package", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        workdir = Path(tmp)
        _inputs(workdir)
        cases = small_cases()
        for seed in args.bench_seed:
            cases += bench_cases(seed, workdir)
        for argv, outputs in cases:
            base, new = (run(src, argv, outputs, workdir) for src in trees)
            for (what, a), (_, b) in zip(base, new):
                if a != b:
                    print(
                        f"DIFFER: gmt {shlex.join(argv)}\n"
                        f"  {what} differs at byte {first_difference(a, b)} "
                        f"(base {len(a)} bytes, new {len(b)} bytes)"
                    )
                    return 1
            print(f"same: gmt {shlex.join(argv)}")
    print(f"all {len(cases)} commands byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
