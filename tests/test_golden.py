"""Byte-for-byte pins of ``simulate``, ``scaling`` and ``verify-lemmas`` output.

``tests/data/golden`` holds, for each case, the config and the results
CSV and JSON, ``<out>.meta.json`` and ``scaling --axis n`` report that
``maskcov`` wrote for it before the results were kept as per-n columns.
It also holds the stdout and JSONL of ``verify-lemmas --seed 3 --trials
2000``, written before the battery moved into ``verify``.  Any change to
how a run or the battery draws, measures or writes shows here as a
changed byte.  At p <= 128 the bytes do not depend on the BLAS thread
count.
"""

import json
from pathlib import Path

import pytest

from maskcov.cli import main

DATA = Path(__file__).parent / "data" / "golden"

#: case name -> extra simulate flags
CASES = {
    # a fixed mask: bounds and m shared by each n, the verdict asserted
    "ar1_banded_decoupled": ["--decoupled"],
    # m and the bounds per replicate; some replicates have no minor cell
    "threshold_decoupled": ["--decoupled"],
    "centered_minor": [],
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_outputs_match_golden_bytes(tmp_path, capsys, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    report = tmp_path / "scaling.json"
    assert main(["simulate", "--config", str(DATA / f"{name}.cfg.json"),
                 "--out", str(out)] + CASES[name]) == 0
    trials = len(json.loads((DATA / f"{name}.json").read_text()))
    assert capsys.readouterr().out == f"wrote {trials} trials to {out}\n"
    assert out.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes()
    assert (tmp_path / f"{name}.{fmt}.meta.json").read_bytes() == \
        (DATA / f"{name}.meta.json").read_bytes()
    assert main(["scaling", "--in", str(out), "--axis", "n",
                 "--out", str(report)]) == 0
    assert report.read_bytes() == (DATA / f"{name}.scaling.json").read_bytes()


def test_lemma_battery_matches_golden_bytes(tmp_path, capsys):
    out = tmp_path / "verify_lemmas.jsonl"
    assert main(["verify-lemmas", "--seed", "3", "--trials", "2000",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        (DATA / "verify_lemmas.out").read_text(encoding="utf-8")
    assert out.read_bytes() == (DATA / "verify_lemmas.jsonl").read_bytes()


def test_threshold_case_varies_m_and_the_minor_cell():
    # the threshold case covers what a per-n column cannot share
    rows = json.loads((DATA / "threshold_decoupled.json").read_text())
    assert len({row["m"] for row in rows}) > 1
    assert {row["bound_minor"] == "" for row in rows} == {True, False}
