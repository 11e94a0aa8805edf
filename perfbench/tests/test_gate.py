"""Self-tests of the benchmark's correctness gate and span recorder.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import env  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

cli = env.import_maskcov()
harness = sys.modules["maskcov.harness"]
sampler = sys.modules["maskcov.sampler"]
verify = sys.modules["maskcov.verify"]

SIMULATE = ("minor-large-n", "ar1-band-decoupled", "threshold-wide-p")


def _run(workload, seed, ops, workdir, tracer=None, gate=None):
    """Run ``ops`` ops; return the problem lists of the ops the gate flagged."""
    gate = gate or wl.Gate()
    schedule = wl.Schedule(workload, seed, workdir)
    flagged = []
    for _ in range(ops):
        op = schedule.next_op()
        if tracer is not None:
            tracer.install()
        try:
            _, codes, _ = wl.run_op(cli, op)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = gate.check(op, codes)
        if problems:
            flagged.append(problems)
    return flagged


def _ops(workload):
    return len(wl.MINOR["m_values"]) if workload == "minor-large-n" else 3


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_unmodified_code_passes(workload, seed, tmp_path):
    gate = wl.Gate()
    assert _run(workload, seed, _ops(workload), tmp_path, gate=gate) == []
    assert gate.run_problems() == []


def _scale_sample_covariance(monkeypatch, factor):
    original = sampler.sample_covariance
    monkeypatch.setattr(harness, "sample_covariance",
                        lambda batch: factor * original(batch))


# threshold errors at n < p are mostly noise: a 5% scale shifts one op's
# mean by under 2 standard errors, so it takes more ops to see it
@pytest.mark.parametrize("workload,ops", [
    ("minor-large-n", 5), ("ar1-band-decoupled", 5), ("threshold-wide-p", 40)])
def test_scaled_sample_covariance_fails_the_run(workload, ops, tmp_path,
                                                monkeypatch):
    _scale_sample_covariance(monkeypatch, 1.05)
    gate = wl.Gate()
    _run(workload, 11, ops, tmp_path, gate=gate)
    assert gate.run_problems(), "pooled gate accepted a 1.05-scaled estimator"


@pytest.mark.parametrize("workload", SIMULATE)
def test_doubled_sample_covariance_fails_every_op(workload, tmp_path,
                                                  monkeypatch):
    _scale_sample_covariance(monkeypatch, 2.0)
    flagged = _run(workload, 11, 3, tmp_path)
    # on ar1-band-decoupled the program's own decoupling check exits 3 first
    assert len(flagged) == 3


def test_failed_lemma_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "STDERR_MARGIN", -1e9)
    flagged = _run("lemma-battery", 11, 1, tmp_path)
    assert flagged == [["exit codes [3]"]]


def test_lemma_oracle_with_fewer_trials_fails_every_op(tmp_path, monkeypatch):
    original = verify.concentration_check

    def halved(fn, lipschitz, sigma, trials, t_grid, seed):
        return original(fn, lipschitz, sigma, trials // 2, t_grid, seed)

    monkeypatch.setattr(verify, "concentration_check", halved)
    flagged = _run("lemma-battery", 11, 2, tmp_path)
    assert len(flagged) == 2
    assert all("over 1000 trials, expected" in " ".join(f) for f in flagged)


def test_wrong_lemma_lhs_below_rhs_fails_the_run(tmp_path, monkeypatch):
    # lhs = 0 still passes the lemma's own lhs <= rhs test
    original = verify.reg_norm_bound_check

    def zero_lhs(a):
        return dataclasses.replace(original(a), lhs=0.0)

    monkeypatch.setattr(verify, "reg_norm_bound_check", zero_lhs)
    gate = wl.Gate()
    _run("lemma-battery", 11, 3, tmp_path, gate=gate)
    assert gate.run_problems(), "pooled gate accepted reg_norm lhs = 0"


def test_computed_counts_repeat_across_seeds(tmp_path):
    counts = []
    for seed in (11, 12):
        tracer = spans.Tracer()
        assert _run("minor-large-n", seed, 5, tmp_path, tracer) == []
        summary = tracer.summary(5, 1.0)
        counts.append({c: summary[c] for c in spans.COMPUTED_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["sampler.normals"] == (wl.MINOR["replicates"]
                                            * wl.MINOR["n"] * wl.MINOR["p"])


def test_function_added_later_is_assigned_to_its_layer(monkeypatch):
    def wishart_draw(p):
        return sampler.mix64(p)

    wishart_draw.__module__ = sampler.__name__
    monkeypatch.setattr(sampler, "wishart_draw", wishart_draw, raising=False)
    monkeypatch.setattr(harness, "wishart_draw", wishart_draw, raising=False)
    tracer = spans.Tracer()
    tracer.install()
    try:
        harness.wishart_draw(3)
    finally:
        tracer.uninstall()
    # the nested mix64 call stays inside the sampler span
    assert [s[:2] for s in tracer.spans] == [["sampler.wishart_draw",
                                              "sampler"]]
    assert spans.group_of("sampler.wishart_draw") == "sampler.other"
    assert harness.wishart_draw is wishart_draw
