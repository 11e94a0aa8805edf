"""Command-line entry points.

Subcommands: ``simulate`` (Monte Carlo error sweep), ``scaling``
(log-log exponent fit on saved results), ``verify-lemmas`` (lemma
oracle battery, one JSON line per report), ``norms`` (matrix norm
statistics).  Each parses its arguments, calls the library (the
battery is :func:`verify.lemma_battery`) and writes what it returns;
no experiment or check is composed here.  Exit codes: 0 success, 1
rejected input, 2 numerical failure, 3 failed lemma or bound assertion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import verify
from .errors import (CheckFailedError, InputError, MaskcovError,
                     NumericalError, read_text)
from .harness import (STREAM_VERSION, ExperimentConfig, emit_results,
                      fit_scaling, read_results, run_error_experiment,
                      write_output)
from .linalg import (is_symmetric, matrix_from_csv, norm_one_two,
                     spectral_norm)
from .masks import custom_mask


@functools.cache  # built by the first main() call, then reused
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskcov")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo error sweep")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--out", required=True, help="results file (csv or json)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config's master_seed")
    sim.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format (default: by file extension)")
    sim.add_argument("--decoupled", action="store_true",
                     help="also record 2||M . Sigma'_n|| per replicate")

    sca = sub.add_parser("scaling", help="fit a log-log scaling exponent")
    sca.add_argument("--in", dest="infile", required=True,
                     help="results file written by simulate")
    sca.add_argument("--axis", choices=("n", "m"), required=True)
    sca.add_argument("--out", required=True, help="report JSON path")

    ver = sub.add_parser("verify-lemmas", help="run the lemma oracle battery")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=100_000)
    ver.add_argument("--out", required=True, help="JSONL output path")

    nrm = sub.add_parser("norms", help="print norm statistics of a matrix")
    nrm.add_argument("--matrix", required=True, help="matrix CSV path")
    return parser


def _cmd_simulate(args) -> int:
    try:
        cfg_obj = json.loads(read_text(args.config, "config"))
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot load config {args.config}: {exc}") from exc
    if not isinstance(cfg_obj, dict):
        raise InputError(f"config {args.config} must be a JSON object")
    if args.seed is not None:
        cfg_obj["master_seed"] = args.seed
    config = ExperimentConfig.from_dict(cfg_obj)
    results = run_error_experiment(config, args.decoupled)
    fmt = args.format or ("json" if args.out.endswith(".json") else "csv")
    emit_results(results, fmt, args.out)
    write_output(args.out + ".meta.json", json.dumps(
        {"config": vars(config),
         "policy": {"stderr_margin": verify.STDERR_MARGIN,
                    "min_replicates": verify.MIN_REPLICATES},
         "decoupled": bool(args.decoupled),
         "stream_version": STREAM_VERSION}, indent=1) + "\n")
    print(f"wrote {sum(len(t.error) for t in results)} trials to {args.out}")
    return 0


def _cmd_scaling(args) -> int:
    report = fit_scaling(read_results(args.infile), args.axis)
    write_output(args.out, json.dumps(vars(report), indent=1) + "\n")
    print(f"slope({args.axis}) = {report.slope:.4f} "
          f"+- {report.slope_stderr:.4f} over {report.points} points")
    return 0


def _cmd_verify_lemmas(args) -> int:
    reports = list(verify.lemma_battery(args.seed, args.trials))
    # a report's fields are flat scalars, so vars() is asdict() without
    # its deep copy
    write_output(args.out, (json.dumps(vars(rep)) + "\n" for rep in reports))
    failed = [rep for rep in reports if not rep.passed]
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.lemma}: "
              f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} stderr={rep.stderr:.3g}")
    if failed:
        raise CheckFailedError(f"{len(failed)} lemma check(s) failed")
    return 0


def _cmd_norms(args) -> int:
    mat = matrix_from_csv(args.matrix)
    info = {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "spectral_norm": spectral_norm(mat),
        "norm_one_two": norm_one_two(mat),
        "symmetric": is_symmetric(mat),
    }
    if info["symmetric"]:
        mask = custom_mask(mat)
        info["max_col_nnz"] = mask.max_col_nnz
    print(json.dumps(info, indent=1))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "scaling": _cmd_scaling,
                "verify-lemmas": _cmd_verify_lemmas, "norms": _cmd_norms}
    try:
        # every subcommand with an --out checks it before doing any work;
        # simulate also writes <out>.meta.json beside its results
        out = getattr(args, "out", None)
        outs = [] if out is None else [out]
        if args.command == "simulate":
            outs.append(out + ".meta.json")
        for path in map(Path, outs):
            if path.is_dir() or not os.access(path.parent, os.W_OK):
                raise InputError(f"cannot write {path}: --out must name "
                                 "a file in a writable directory")
        return handlers[args.command](args)
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MaskcovError, MemoryError) as exc:
        # an input too large to allocate is rejected input too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
