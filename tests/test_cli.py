import json

import numpy as np
import pytest

from maskcov.cli import main


def write_config(tmp_path, **overrides):
    cfg = {"sigma": {"kind": "identity"},
           "mask": {"kind": "banded", "k": 1},
           "n_grid": [16, 32, 64], "p": 8, "replicates": 5, "master_seed": 4}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,p,m,replicate,error,bound_refined")
        assert len(lines) == 1 + 3 * 5
        meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
        assert meta["config"]["p"] == 8
        assert meta["policy"] == {"stderr_margin": 3.0}

    def test_metadata_records_stream_version(self, tmp_path):
        cfg = write_config(tmp_path, n_grid=[16], replicates=2)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
        assert meta["stream_version"] == 4

    @pytest.mark.parametrize("sigma", [{"kind": "identity"},
                                       {"kind": "ar1", "rho": 0.5}])
    def test_minor_of_a_huge_p_builds_only_its_block(self, tmp_path, sigma):
        # each trial reads a 1x1 block, and ||Sigma|| has a closed form
        cfg = write_config(tmp_path, sigma=sigma, p=10_000_000,
                           mask={"kind": "minor", "S": [0]})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 5

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "5"])
        main(["simulate", "--config", str(cfg), "--out", str(c), "--seed", "4"])
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_are_accepted(self, tmp_path, seed):
        cfg = write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        assert main(["verify-lemmas", "--seed", str(seed), "--trials", "10",
                     "--out", str(tmp_path / "l.jsonl")]) == 0

    def test_decoupled_column(self, tmp_path):
        cfg = write_config(tmp_path, n_grid=[16], replicates=10)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--decoupled"]) == 0
        assert "bound_decoupled" in out.read_text().splitlines()[0]

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, n_grid=[16], replicates=2)
        out = tmp_path / "results.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2

    def test_invalid_config_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, n_grid=[])
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("size", [2, 6])
    @pytest.mark.parametrize("sigma", [{"kind": "identity"},
                                       {"kind": "ar1", "rho": 0.5}])
    def test_custom_mask_not_p_by_p_exits_one(self, tmp_path, capsys, size,
                                              sigma):
        path = tmp_path / "mask.csv"
        np.savetxt(path, np.eye(size), delimiter=",", fmt="%.17g")
        cfg = write_config(tmp_path, p=4, sigma=sigma,
                           mask={"kind": "custom", "path": str(path)})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1,2\n0,1\n", "1,nan\nnan,1\n",
                                      "1,0,0\n0,1,0\n"],
                             ids=["asymmetric", "non-finite", "non-square"])
    @pytest.mark.parametrize("kind", ["sigma", "mask"])
    def test_bad_custom_matrix_exits_one(self, tmp_path, capsys, kind, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        cfg = write_config(tmp_path, p=2,
                           **{kind: {"kind": "custom", "path": str(path)}})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", ".", "r.csv"],
                             ids=["missing-dir", "is-dir", "meta-is-dir"])
    def test_out_checked_before_sweep(self, tmp_path, monkeypatch, capsys,
                                      out):
        def no_sweep(config, decoupled):
            raise AssertionError("sweep ran before --out was checked")

        (tmp_path / "r.csv.meta.json").mkdir()
        monkeypatch.setattr("maskcov.cli.run_error_experiment", no_sweep)
        assert main(["simulate", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestScaling:
    def test_fits_slope_from_results(self, tmp_path, capsys):
        rows = ["n,p,m,replicate,error"]
        for r, n in enumerate((16, 64, 256, 1024)):
            rows.append(f"{n},8,3,{r},{2.0 * n ** -0.5!r}")
        results = tmp_path / "results.csv"
        results.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["scaling", "--in", str(results), "--axis", "n",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["axis"] == "n"
        assert report["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert report["points"] == 4

    def test_format_is_read_from_content_not_suffix(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", str(write_config(tmp_path)),
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("n,p,m,replicate,error")
        assert main(["scaling", "--in", str(out), "--axis", "n",
                     "--out", str(tmp_path / "report.json")]) == 0

    def test_too_few_points_exits_one(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("n,p,m,replicate,error\n16,8,3,0,0.5\n")
        assert main(["scaling", "--in", str(results), "--axis", "n",
                     "--out", str(tmp_path / "r.json")]) == 1


class TestVerifyLemmas:
    def test_battery_passes_and_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "lemmas.jsonl"
        code = main(["verify-lemmas", "--seed", "11", "--trials", "10000",
                     "--out", str(out)])
        assert code == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert reports and all(r["passed"] for r in reports)
        assert {"lemma", "lhs", "rhs", "stderr", "passed",
                "trials"} <= set(reports[0])
        stdout = capsys.readouterr().out
        assert "PASS decoupling_chaos" in stdout

    def test_out_checked_before_battery(self, tmp_path, monkeypatch, capsys):
        def no_battery(*args):
            raise AssertionError("battery ran before --out was checked")

        monkeypatch.setattr("maskcov.verify.decoupling_check", no_battery)
        assert main(["verify-lemmas", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestNorms:
    def test_symmetric_matrix_stats(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        np.savetxt(path, [[0.0, 2.0], [2.0, 0.0]], delimiter=",", fmt="%.17g")
        assert main(["norms", "--matrix", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["spectral_norm"] == pytest.approx(2.0)
        assert info["norm_one_two"] == pytest.approx(2.0)
        assert info["symmetric"] is True
        assert info["max_col_nnz"] == 1

    def test_missing_matrix_exits_one(self, tmp_path):
        assert main(["norms", "--matrix", str(tmp_path / "none.csv")]) == 1

    def test_huge_entry_prints_a_json_number(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1e160\n")
        assert main(["norms", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"norm_one_two": 1e+160' in out
        assert json.loads(out)["norm_one_two"] == 1e160

    @pytest.mark.parametrize("text,norm", [
        ("1e308,5e307\n5e307,1e308\n", 1.5e308),
        ("0,1e308\n-1e308,0\n", 1e308),
    ], ids=["symmetric", "antisymmetric"])
    def test_entries_near_overflow(self, tmp_path, capsys, text, norm):
        # finite matrices on which A + A^T or A - A^T overflows
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert main(["norms", "--matrix", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["spectral_norm"] == pytest.approx(
            norm, rel=1e-12)


#: A results CSV that scaling fits: three sample sizes.
FIT_CSV = ("n,p,m,replicate,error\n"
           "16,8,3,0,0.5\n64,8,3,0,0.25\n256,8,3,0,0.1\n")


@pytest.mark.parametrize("command,payload", [
    ("norms", "1.0,x\n2.0,3.0\n"),
    ("norms", "1.0,2.0\n3.0\n"),
    ("simulate", {"mask": {"kind": "banded"}}),
    ("simulate", {"mask": {"kind": "banded", "k": "two"}}),
    ("simulate", {"mask": {"kind": "taper", "k": None}}),
    ("simulate", {"mask": {"kind": "minor"}}),
    ("simulate", {"mask": {"kind": "minor", "S": ["a"]}}),
    ("simulate", {"mask": {"kind": "threshold"}}),
    ("simulate", {"mask": {"kind": "custom"}}),
    ("simulate", {"sigma": {"kind": "ar1"}}),
    ("simulate", {"sigma": {"kind": "custom"}}),
    ("simulate", [{"p": 8}]),
    ("simulate", {"n_grid": [16.9, 32]}),
    ("simulate", {"replicates": 2.5}),
    ("simulate", {"p": 8.9}),
    ("simulate", {"master_seed": 1.5}),
    ("simulate", {"mask": {"kind": "minor", "S": [0.9, 2.7]}}),
    ("simulate", {"mask": {"kind": "banded", "k": True}}),
    ("simulate", {"mask": {"kind": "taper", "k": 2.5}}),
    ("simulate", {"centered": "false"}),
    ("simulate", {"centred": True}),
    ("simulate", {"mask": {"kind": "threshold", "h": float("nan")}}),
    ("simulate", {"mask": {"kind": "threshold", "h": float("inf")}}),
    ("simulate", {"sigma": {"kind": "ar1", "rho": "0.5"}}),
    ("simulate", {"mask": {"kind": "threshold", "h": True}}),
    ("simulate", {"mask": {"kind": "custom", "path": 5}}),
    # a 728 TiB banded mask, beyond any user address space: the
    # allocation fails at once
    ("simulate", {"p": 10_000_000}),
    # sizes numpy cannot index, rejected before anything is allocated
    ("simulate", {"n_grid": [10**20]}),
    ("simulate", {"n_grid": [2**53]}),
    ("simulate", {"p": 2**63}),
    ("simulate", {"p": 2**63, "mask": {"kind": "taper", "k": 2}}),
    ("simulate", {"p": 10**20}),
    ("simulate", {"p": 10**20, "mask": {"kind": "threshold", "h": 0.3}}),
    ("simulate", {"p": 2**30, "mask": {"kind": "threshold", "h": 0.3}}),
    # mix64 reduces a master seed mod 2^64: any seed outside [0, 2^64)
    # would alias one inside it
    ("simulate", {"master_seed": -1}),
    ("simulate", {"master_seed": 2**64}),
    ("simulate", {"master_seed": 2**64 + 1}),
    ("simulate-seed", "-1"),
    ("simulate-seed", str(2**64)),
    ("simulate-seed", str(2**64 + 1)),
    ("verify-lemmas", ["--seed", "-1"]),
    ("verify-lemmas", ["--seed", str(2**64)]),
    ("verify-lemmas", ["--seed", str(2**64 + 1)]),
    ("verify-lemmas", ["--trials", "100000000000000"]),
    ("verify-lemmas", ["--trials", str(10**20)]),
    ("scaling", ("r.json", "{not json")),
    ("scaling", ("r.csv", "n,p,replicate,error\n16,8,0,0.5\n")),
    ("scaling", ("r.csv", "n,p,m,replicate,error\n16,8,3,0,abc\n")),
    ("scaling", ("r.json", json.dumps([
        {"n": n, "p": 8, "m": 3, "replicate": 0, "error": 0.5}
        for n in (16.9, 64, 256)]))),
    ("scaling", ("r.json", json.dumps([
        {"n": n, "p": 8, "m": 3, "replicate": r, "error": 0.5}
        for n, r in ((16, True), (64, 0), (256, 0))]))),
    ("scaling", ("r.csv", FIT_CSV + "1024,8,3,0,nan\n")),
    ("scaling", ("r.csv", FIT_CSV + "1024,8,3,0,0.5,9\n")),
    ("scaling", ("r.csv", FIT_CSV + "0,8,3,0,0.5\n")),
    ("out", ("scaling", "missing/report.json")),
    ("out", ("verify-lemmas", ".")),
], ids=["csv-non-numeric", "csv-ragged", "banded-no-k", "banded-k-word",
        "taper-k-null", "minor-no-S", "minor-S-word", "threshold-no-h",
        "custom-mask-no-path", "ar1-no-rho", "custom-sigma-no-path",
        "config-list-with-seed", "n-grid-fraction", "replicates-fraction",
        "p-fraction", "seed-fraction", "minor-S-fractions", "banded-k-bool",
        "taper-k-fraction", "centered-string", "centred-misspelled",
        "threshold-h-nan", "threshold-h-inf", "ar1-rho-string",
        "threshold-h-bool", "custom-path-number", "banded-p-unallocatable",
        "n-unindexable", "n-not-exact-float", "banded-p-unindexable",
        "taper-p-unindexable", "banded-p-beyond-int64",
        "threshold-p-beyond-int64", "threshold-p-array-too-big",
        "seed-negative", "seed-2^64", "seed-2^64+1", "seed-flag-negative",
        "seed-flag-2^64", "seed-flag-2^64+1", "lemma-seed-negative",
        "lemma-seed-2^64", "lemma-seed-2^64+1",
        "lemma-trials-unallocatable", "lemma-trials-unindexable",
        "results-not-json",
        "results-no-m", "results-error-word", "results-json-fraction",
        "results-json-bool", "results-csv-nan", "results-ragged",
        "results-n-zero",
        "scaling-out-missing-dir", "lemmas-out-is-dir"])
def test_bad_input_exits_one_without_traceback(tmp_path, capsys, command,
                                               payload):
    if command == "norms":
        path = tmp_path / "m.csv"
        path.write_text(payload)
        argv = ["norms", "--matrix", str(path)]
    elif command == "scaling":
        name, text = payload
        path = tmp_path / name
        path.write_text(text)
        argv = ["scaling", "--in", str(path), "--axis", "n",
                "--out", str(tmp_path / "report.json")]
    elif command == "out":  # valid input, bad --out
        sub, out = payload
        results = tmp_path / "r.csv"
        results.write_text(FIT_CSV)
        argv = {"scaling": ["scaling", "--in", str(results), "--axis", "n"],
                "verify-lemmas": ["verify-lemmas", "--trials", "10"]}[sub]
        argv += ["--out", str(tmp_path / out)]
    elif command == "verify-lemmas":
        argv = ["verify-lemmas", *payload, "--out", str(tmp_path / "l.jsonl")]
    elif command == "simulate-seed":
        argv = ["simulate", "--config", str(write_config(tmp_path)),
                "--seed", payload, "--out", str(tmp_path / "x.csv")]
    elif isinstance(payload, list):  # a config that is not a JSON object
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        argv = ["simulate", "--config", str(path), "--seed", "3",
                "--out", str(tmp_path / "x.csv")]
    else:
        argv = ["simulate", "--config", str(write_config(tmp_path, **payload)),
                "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # rejected before any output is written
    for out in ("x.csv", "x.csv.meta.json", "report.json", "l.jsonl"):
        assert not (tmp_path / out).exists()
