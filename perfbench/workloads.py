"""Workload definitions, op execution and the correctness gate.

An op is what a user does with one command line: one in-process call of
``maskcov.cli.main(argv)``.  On ``ar1-band-decoupled`` an op is a
``simulate --decoupled`` call plus the ``scaling --axis n`` call on its
output, timed together, so that every op of a workload does the same work
and the op-time percentiles do not straddle two op sizes.

Every op of a workload has the same work shape (p, n grid, replicates,
mask size cycle), so per-op work counts do not depend on the seed.  The
seed picks the per-op master seeds, the minor index sets and the order
of the mask sizes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: An op fails the gate when one of its means lies further than this many
#: combined standard errors from the reference mean.  The gated quantities
#: are maxima (spectral norms, max column counts) whose right tails are
#: near exponential, so a mean of one or two replicates is far from
#: Gaussian in the tail: |z| reached 6.2 in 2*10^4 per-op tests at this
#: commit.  The per-op test therefore only catches gross errors.
OP_GATE_Z = 15.0
#: A run fails when a mean pooled over all its ops lies further than this.
#: Pooled over 100 or more trials the mean is close to Gaussian, so this
#: test is tight enough to see a 5% scale error.
RUN_GATE_Z = 6.0

MINOR = {"p": 256, "n": 4096, "m_values": (4, 8, 16, 32, 64), "replicates": 2}
AR1_BAND = {"p": 128, "n_grid": (256, 512, 1024, 2048), "k": 2, "rho": 0.5,
            "replicates": 2}
THRESHOLD = {"p": 384, "n_grid": (64, 128), "h": 0.3, "rho": 0.5,
             "replicates": 1}
LEMMA = {"trials": 2000, "reports": 40}
#: Report fields gated against the reference moments at the report's
#: position in the battery.
LEMMA_FIELDS = ("lhs", "rhs", "stderr")

WORKLOADS = ("minor-large-n", "ar1-band-decoupled", "threshold-wide-p",
             "lemma-battery")


def simulate_config(workload: str, master_seed: int, m: int = 0,
                    support=None, replicates: int = 0) -> dict:
    """The ``simulate`` config of one op; ``replicates`` 0 means the op's."""
    if workload == "minor-large-n":
        support = list(range(m)) if support is None else support
        return {"sigma": {"kind": "identity"},
                "mask": {"kind": "minor", "S": support},
                "p": MINOR["p"], "n_grid": [MINOR["n"]],
                "replicates": replicates or MINOR["replicates"],
                "master_seed": master_seed}
    if workload == "ar1-band-decoupled":
        return {"sigma": {"kind": "ar1", "rho": AR1_BAND["rho"]},
                "mask": {"kind": "banded", "k": AR1_BAND["k"]},
                "p": AR1_BAND["p"], "n_grid": list(AR1_BAND["n_grid"]),
                "replicates": replicates or AR1_BAND["replicates"],
                "master_seed": master_seed}
    if workload == "threshold-wide-p":
        return {"sigma": {"kind": "ar1", "rho": THRESHOLD["rho"]},
                "mask": {"kind": "threshold", "h": THRESHOLD["h"]},
                "p": THRESHOLD["p"], "n_grid": list(THRESHOLD["n_grid"]),
                "replicates": replicates or THRESHOLD["replicates"],
                "master_seed": master_seed}
    raise ValueError(f"no simulate config for workload {workload!r}")


def gated_quantities(workload: str) -> tuple:
    """CSV columns whose per-point means the gate compares."""
    return {"minor-large-n": ("error",),
            "ar1-band-decoupled": ("error", "bound_decoupled"),
            "threshold-wide-p": ("error",)}[workload]


def lemma_argv(seed: int, out: Path) -> list:
    """The ``verify-lemmas`` command line of one lemma-battery op."""
    return ["verify-lemmas", "--seed", str(seed),
            "--trials", str(LEMMA["trials"]), "--out", str(out)]


def point_key(workload: str, n: int, m: int) -> str:
    """Gate point of a trial row: mask size is a config input only for minors."""
    return f"n={n},m={m}" if workload == "minor-large-n" else f"n={n}"


@dataclass
class Op:
    index: int
    workload: str
    calls: list                 # argv lists, run in order
    items: int                  # trial rows or lemma reports produced
    config: dict = field(default_factory=dict)
    out: Path | None = None
    report: Path | None = None


class Schedule:
    """Deterministic op stream of one workload for one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.index = 0
        self._cycle: list = []

    @property
    def cycle_length(self) -> int:
        return len(MINOR["m_values"]) if self.workload == "minor-large-n" else 1

    def next_op(self) -> Op:
        i = self.index
        self.index += 1
        seed = self.rng.randrange(1, 2 ** 31)
        # files are reused across ops: the op count must not grow disk use
        base = self.workdir / f"op{i % 2}"
        for stale in self.workdir.glob(f"{base.name}.*"):
            stale.unlink()
        if self.workload == "lemma-battery":
            out = base.with_suffix(".jsonl")
            return Op(i, self.workload, [lemma_argv(seed, out)],
                      LEMMA["reports"], out=out)
        if self.workload == "minor-large-n":
            if not self._cycle:
                self._cycle = list(MINOR["m_values"])
                self.rng.shuffle(self._cycle)
            m = self._cycle.pop()
            support = sorted(self.rng.sample(range(MINOR["p"]), m))
            config = simulate_config(self.workload, seed, support=support)
        else:
            config = simulate_config(self.workload, seed)
        cfg_path = base.with_suffix(".cfg.json")
        cfg_path.write_text(json.dumps(config))
        out = base.with_suffix(".csv")
        calls = [["simulate", "--config", str(cfg_path), "--out", str(out)]]
        report = None
        if self.workload == "ar1-band-decoupled":
            calls[0].append("--decoupled")
            report = base.with_suffix(".scaling.json")
            calls.append(["scaling", "--in", str(out), "--axis", "n",
                          "--out", str(report)])
        items = len(config["n_grid"]) * config["replicates"]
        return Op(i, self.workload, calls, items, config, out, report)


def run_op(cli, op: Op) -> tuple:
    """Run the op's CLI calls; return (wall seconds, exit codes, captured text).

    ``cli`` is the ``maskcov.cli`` module; ``main`` is looked up on every call
    so that a traced run sees its patched entry point.
    """
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in op.calls:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a traceback is a failed op, not a dead run
                codes.append(-1)
                sink.write(traceback.format_exc())
                break
    return time.perf_counter() - start, codes, sink.getvalue()


def read_rows(path: Path) -> list:
    """Trial rows of a results CSV, parsed without maskcov."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_reports(path: Path) -> list:
    """Lemma reports of a ``verify-lemmas`` JSONL file."""
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _ols_slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class Gate:
    """Distributional correctness gate against recorded reference moments.

    Each gated value is tested against the reference mean, sd and count
    recorded for it: the error and decoupled term at each simulate point,
    and the lhs, rhs and stderr at each position of the lemma battery.
    An op's mean over its values must lie within ``OP_GATE_Z`` combined
    standard errors of the reference mean, and the mean pooled over every
    op of the run within ``RUN_GATE_Z``.  The standard error uses the
    reference sd (an r=2 sample sd is too noisy to standardise by).  A
    value with reference sd 0 is the same at every reference seed, so it
    must match the reference exactly.
    """

    def __init__(self):
        self.ref = json.loads(REFERENCE_PATH.read_text())
        self.pooled: dict = {}      # label -> [reference moments, sum, count]
        self.max_abs_z = 0.0        # largest per-op |z| seen, for the record

    def _test(self, label: str, ref: list, values: list) -> list:
        mean, sd, _ = ref
        if sd == 0.0:
            wrong = [v for v in values
                     if not math.isclose(v, mean, rel_tol=1e-9, abs_tol=1e-12)]
            return [f"{label}: {wrong[0]!r} != reference {mean!r}"] if wrong else []
        acc = self.pooled.setdefault(label, [ref, 0.0, 0])
        acc[1] += sum(values)
        acc[2] += len(values)
        z = _z(ref, sum(values), len(values))
        self.max_abs_z = max(self.max_abs_z, abs(z))
        if not abs(z) <= OP_GATE_Z:
            return [f"{label}: {z:+.2f} standard errors from reference"]
        return []

    def _gate_rows(self, workload: str, rows: list) -> list:
        groups: dict = {}
        for row in rows:
            key = point_key(workload, int(row["n"]), int(row["m"]))
            for q in gated_quantities(workload):
                groups.setdefault((key, q), []).append(float(row[q]))
        problems = []
        for (key, q), vals in groups.items():
            problems += self._test(f"{q} at {key}",
                                   self.ref["points"][workload][key][q], vals)
        return problems

    def _gate_lemmas(self, reports: list) -> list:
        expected = self.ref["lemmas"]
        if len(reports) != len(expected):
            return [f"{len(reports)} lemma reports, expected {len(expected)}"]
        problems = [f"lemma {rep['lemma']} reported FAIL"
                    for rep in reports if not rep["passed"]]
        for i, (rep, ref) in enumerate(zip(reports, expected)):
            if (rep["lemma"], rep["trials"]) != (ref["lemma"], ref["trials"]):
                problems.append(
                    f"report {i} is {rep['lemma']} over {rep['trials']} "
                    f"trials, expected {ref['lemma']} over {ref['trials']}")
                continue
            for q in LEMMA_FIELDS:
                problems += self._test(f"report {i} ({rep['lemma']}) {q}",
                                       ref[q], [float(rep[q])])
        return problems

    def check(self, op: Op, codes: list) -> list:
        """Problems with the op's outputs; empty when the op is correct."""
        if codes != [0] * len(op.calls):
            return [f"exit codes {codes}"]
        if not op.out.is_file():
            return [f"no output file {op.out.name}"]
        if op.workload == "lemma-battery":
            return self._gate_lemmas(read_reports(op.out))
        rows = read_rows(op.out)
        problems = _check_rows(op, rows)
        if problems:
            return problems
        problems = self._gate_rows(op.workload, rows)
        if op.report is not None:
            problems += _check_scaling(op, rows)
        return problems

    def run_problems(self) -> list:
        """Pooled means of every op checked so far that fail the gate."""
        problems = []
        for label, (ref, total, count) in sorted(self.pooled.items()):
            z = _z(ref, total, count)
            if not abs(z) <= RUN_GATE_Z:
                problems.append(f"pooled {label} over {count} values: "
                                f"{z:+.2f} standard errors from reference")
        return problems


def _z(ref: list, total: float, count: int) -> float:
    """Standardised distance of a mean of ``count`` values from the reference."""
    mean, sd, ref_count = ref
    return (total / count - mean) / (sd * math.sqrt(1.0 / count + 1.0 / ref_count))


def _check_rows(op: Op, rows: list) -> list:
    cfg = op.config
    expected = [(n, r) for n in cfg["n_grid"] for r in range(cfg["replicates"])]
    got = [(int(row["n"]), int(row["replicate"])) for row in rows]
    if got != expected:
        return [f"trial rows {got} != expected {expected}"]
    problems = []
    for row in rows:
        if int(row["p"]) != cfg["p"]:
            problems.append(f"row p={row['p']} != {cfg['p']}")
        mask = cfg["mask"]
        if mask["kind"] == "minor" and int(row["m"]) != len(mask["S"]):
            problems.append(f"minor m={row['m']} != {len(mask['S'])}")
        if mask["kind"] == "banded" and int(row["m"]) != 2 * mask["k"] + 1:
            problems.append(f"banded m={row['m']} != {2 * mask['k'] + 1}")
        err = float(row["error"])
        if not 0.0 < err <= float(row["bound_refined"]):
            problems.append(f"error {err} outside (0, refined bound]")
    return problems


def _check_scaling(op: Op, rows: list) -> list:
    report = json.loads(op.report.read_text())
    by_n: dict = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append(float(row["error"]))
    ns = sorted(by_n)
    slope = _ols_slope([math.log(n) for n in ns],
                       [math.log(sum(by_n[n]) / len(by_n[n])) for n in ns])
    if report["axis"] != "n" or report["points"] != len(ns):
        return [f"scaling report {report} does not cover {len(ns)} n values"]
    if not math.isclose(report["slope"], slope, rel_tol=1e-9, abs_tol=1e-12):
        return [f"scaling slope {report['slope']} != recomputed {slope}"]
    return []
