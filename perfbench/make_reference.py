"""Record the gate's reference moments at a large replicate count.

Run from the repository root:

    python3 perfbench/make_reference.py

For every gated quantity (see ``workloads.gated_quantities``) at every
(workload, n, m) point it stores the mean, the sample sd and the
replicate count in ``perfbench/reference.json``.  For every position of
the lemma battery it stores the lemma name, its trial count, and the
same moments of its lhs, rhs and stderr over as many battery seeds.
The reference seed is fixed and far from the seeds the benchmark draws
per op.  Re-record only when the estimator's distribution is meant to
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

import env
import workloads as wl

REFERENCE_SEED = 4_000_000_007
#: Replicates per simulate point, and battery seeds per lemma position.
REFERENCE_REPLICATES = 1000


def _moments(values: list) -> list:
    count = len(values)
    if len(set(values)) == 1:  # the same at every seed: gated exactly
        return [values[0], 0.0, count]
    mean = sum(values) / count
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return [mean, math.sqrt(var), count]


def _configs(workload: str, replicates: int):
    if workload == "minor-large-n":
        for m in wl.MINOR["m_values"]:
            yield wl.simulate_config(workload, REFERENCE_SEED + m, m=m,
                                     replicates=replicates)
    else:
        yield wl.simulate_config(workload, REFERENCE_SEED,
                                 replicates=replicates)


def _lemmas(cli, work) -> list:
    """Name, trials and lhs/rhs/stderr moments of each battery position."""
    start = time.perf_counter()
    out = work / "ref.jsonl"
    positions: list = []
    for i in range(REFERENCE_REPLICATES):
        argv = wl.lemma_argv(REFERENCE_SEED + i, out)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"reference run failed: {argv}")
        reports = wl.read_reports(out)
        if not positions:
            positions = [{"lemma": rep["lemma"], "trials": rep["trials"],
                          **{q: [] for q in wl.LEMMA_FIELDS}}
                         for rep in reports]
        for pos, rep in zip(positions, reports, strict=True):
            if (rep["lemma"], rep["trials"]) != (pos["lemma"], pos["trials"]):
                raise SystemExit(f"battery changed shape at seed {argv}")
            for q in wl.LEMMA_FIELDS:
                pos[q].append(float(rep[q]))
    print(f"lemma-battery: {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return [{**pos, **{q: _moments(pos[q]) for q in wl.LEMMA_FIELDS}}
            for pos in positions]


def main() -> int:
    cli = env.import_maskcov()
    work = env.work_dir("reference")
    points: dict = {}
    try:
        for workload in wl.WORKLOADS:
            if workload == "lemma-battery":
                continue
            groups: dict = {}
            for config in _configs(workload, REFERENCE_REPLICATES):
                start = time.perf_counter()
                cfg_path = work / "ref.cfg.json"
                cfg_path.write_text(json.dumps(config))
                out = work / "ref.csv"
                argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
                if workload == "ar1-band-decoupled":
                    argv.append("--decoupled")
                if cli.main(argv) != 0:
                    raise SystemExit(f"reference run failed: {argv}")
                for row in wl.read_rows(out):
                    key = wl.point_key(workload, int(row["n"]), int(row["m"]))
                    for q in wl.gated_quantities(workload):
                        groups.setdefault(key, {}).setdefault(q, []).append(
                            float(row[q]))
                print(f"{workload} {config['mask']}: "
                      f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
            points[workload] = {key: {q: _moments(vals)
                                      for q, vals in qs.items()}
                                for key, qs in sorted(groups.items())}
        lemmas = _lemmas(cli, work)
    finally:
        env.remove_work_dir(work)
    wl.REFERENCE_PATH.write_text(json.dumps({
        "about": "mean, sd, replicates of each gated quantity per point "
                 "and per lemma battery position",
        "replicates": REFERENCE_REPLICATES,
        "reference_seed": REFERENCE_SEED,
        "source": env.source_identity(),
        "points": points,
        "lemmas": lemmas,
    }, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
