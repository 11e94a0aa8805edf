"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the stated tolerance.  Experiment sweeps are
shared across criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from maskcov import (ExperimentConfig, SeedSpec, banded_mask, bound_minor,
                     compare_means, concentration_check, decoupling_check,
                     enum_regular, fit_scaling, minor_mask,
                     reg_norm_bound_check, run_error_experiment,
                     sigma_x_lipschitz_check, sigma_x_mean_check)
from oracles import trial_rows

MASTER_SEED = 20260823
#: The asymptotic envelopes carry o(1) terms, so criteria 1 and 2 check
#: them with a multiplicative band rather than as hard bounds.
IDENTITY_BAND = (0.5, 3.0)
MINOR_ENVELOPE_FACTOR = 1.3
DEFAULT_REPLICATES = 200


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run(sigma, mask, n_grid, p, replicates, decoupled=False, seed_bump=0):
    cfg = ExperimentConfig(sigma=sigma, mask=mask, n_grid=tuple(n_grid), p=p,
                           replicates=replicates,
                           master_seed=MASTER_SEED + seed_bump)
    return run_error_experiment(cfg, decoupled)


@pytest.fixture(scope="module")
def identity_case_results():
    return run({"kind": "identity"}, {"kind": "banded", "k": 0},
               [128], p=256, replicates=DEFAULT_REPLICATES)


@pytest.fixture(scope="module")
def minor_envelope_results():
    return run({"kind": "identity"}, {"kind": "minor", "S": list(range(16))},
               [256], p=512, replicates=DEFAULT_REPLICATES,
               seed_bump=1)


@pytest.fixture(scope="module")
def n_scaling_results():
    return run({"kind": "identity"}, {"kind": "banded", "k": 2},
               [256, 512, 1024, 2048, 4096], p=128, replicates=100,
               seed_bump=2)


@pytest.fixture(scope="module")
def m_scaling_results():
    results = []
    for i, m in enumerate((4, 8, 16, 32, 64)):
        results += run({"kind": "identity"},
                       {"kind": "minor", "S": list(range(m))},
                       [4096], p=256, replicates=100, seed_bump=10 + i)
    return results


def test_criterion_1_identity_log_factor(identity_case_results):
    mean = np.mean([t.error for t in trial_rows(identity_case_results)])
    ref = math.sqrt(math.log(2 * 256) / 128)  # sqrt(log(2p) / n)
    lo, hi = IDENTITY_BAND
    ok = lo * ref <= mean <= hi * ref
    check("1 identity log-factor example", ok,
          f"mean error {mean:.4f} vs band [{lo * ref:.4f}, {hi * ref:.4f}]")


def test_criterion_2_minor_envelope(minor_envelope_results):
    mean = np.mean([t.error for t in trial_rows(minor_envelope_results)])
    envelope = bound_minor(16, 256, 1.0)
    upper = MINOR_ENVELOPE_FACTOR
    ok = 0.5 * envelope <= mean <= upper * envelope
    check("2 minor envelope", ok,
          f"mean error {mean:.4f} vs [{0.5 * envelope:.4f}, "
          f"{upper * envelope:.4f}] around envelope {envelope:.4f}")


def test_criterion_3_scaling_in_n(n_scaling_results):
    report = fit_scaling(n_scaling_results, "n")
    ok = abs(report.slope - (-0.5)) <= 0.1
    check("3 scaling in n", ok,
          f"slope {report.slope:.4f} +- {report.slope_stderr:.4f}, "
          f"target -0.5 +- 0.1")


def test_criterion_4_scaling_in_m(m_scaling_results):
    report = fit_scaling(m_scaling_results, "m")
    ok = abs(report.slope - 0.5) <= 0.15
    check("4 scaling in m", ok,
          f"slope {report.slope:.4f} +- {report.slope_stderr:.4f}, "
          f"target +0.5 +- 0.15")


def test_criterion_5_explicit_constant_bound(identity_case_results,
                                             minor_envelope_results,
                                             n_scaling_results,
                                             m_scaling_results):
    trials = trial_rows(identity_case_results + minor_envelope_results
                        + n_scaling_results + m_scaling_results)
    violations = sum(t.error > t.bounds["refined"] for t in trials)
    margin = min(t.bounds["refined"] / t.error for t in trials if t.error > 0)
    check("5 explicit-constant bound", violations == 0,
          f"{violations} violations over {len(trials)} trials, "
          f"min bound/error ratio {margin:.1f}")


def test_criterion_6_decoupling():
    ok = True
    details = []
    for sigma in ({"kind": "identity"}, {"kind": "ar1", "rho": 0.5}):
        for mask in ({"kind": "banded", "k": 2},
                     {"kind": "minor", "S": list(range(8))}):
            results = trial_rows(run(sigma, mask, [64], p=64,
                                     replicates=500, decoupled=True,
                                     seed_bump=20))
            report = compare_means(
                "decoupled_error", [t.error for t in results],
                [t.bounds["decoupled"] for t in results])
            ok &= report.passed
            details.append(f"{sigma['kind']}/{mask['kind']}: "
                           f"{report.lhs:.3f} <= {report.rhs:.3f}")
    analytic = decoupling_check([np.eye(1)], np.eye(1), 10 ** 6,
                                SeedSpec(MASTER_SEED, 30))
    good = analytic.passed and abs(analytic.rhs - 4 / math.pi) <= 0.01 * 4 / math.pi
    ok &= good
    details.append(f"d=1 rhs {analytic.rhs:.4f} vs 4/pi {4 / math.pi:.4f}")
    check("6 decoupling", ok, "; ".join(details))


def test_criterion_7_discretization():
    rng = np.random.default_rng(MASTER_SEED)
    all_pass = all(reg_norm_bound_check(rng.standard_normal((p, p))).passed
                   for p in (2, 4, 6, 8) for _ in range(100))
    cardinality_ok = all(
        enum_regular(p, s).shape[0] == math.comb(p, s) * 2 ** s
        for p in range(1, 11) for s in range(1, p + 1))
    check("7 discretization", all_pass and cardinality_ok,
          f"reg-bound all pass: {all_pass}, cardinalities exact: "
          f"{cardinality_ok}")


def test_criterion_8_bai_yin_envelope():
    results = run({"kind": "identity"}, {"kind": "banded", "k": 99},
                  [400], p=100, replicates=100, seed_bump=40)
    mean = np.mean([t.error for t in trial_rows(results)])
    ok = 1.05 <= mean <= 1.45
    check("8 Bai-Yin envelope", ok,
          f"mean ||sample cov - I|| = {mean:.4f}, band [1.05, 1.45] "
          f"around envelope 1.25")


def test_criterion_9_gaussian_concentration():
    t_grid = (0.5, 1.0, 1.5)
    linear = concentration_check("linear", 1.0, np.eye(4), 10 ** 6, t_grid,
                                 SeedSpec(MASTER_SEED, 50))
    sup = concentration_check("sup-norm", 1.0, np.eye(50), 10 ** 6, t_grid,
                              SeedSpec(MASTER_SEED, 51))
    ok = all(r.passed for r in linear + sup)
    check("9 Gaussian concentration", ok,
          "; ".join(f"{r.lemma}: {r.lhs:.4f} <= {r.rhs:.4f}"
                    for r in linear + sup))


def test_criterion_10_sigma_x_bounds():
    rng = np.random.default_rng(MASTER_SEED + 60)
    p, n = 12, 50
    mean_ok = True
    details = []
    for i in range(5):
        mask = minor_mask(p, rng.choice(p, size=rng.integers(2, 7),
                                        replace=False))
        x = rng.standard_normal(p)
        report = sigma_x_mean_check(mask, x / np.linalg.norm(x), n=n,
                                    batches=10 ** 4,
                                    seed=SeedSpec(MASTER_SEED, 61 + i))
        mean_ok &= report.passed
        details.append(f"pair {i}: {report.lhs:.4f} <= {report.rhs:.4f}")
    lip = sigma_x_lipschitz_check(banded_mask(p, 2), 2, 10 ** 4,
                                  SeedSpec(MASTER_SEED, 70))
    check("10 sigma_x bounds", mean_ok and lip.passed,
          "; ".join(details) + f"; lipschitz ratio {lip.lhs:.3f} <= 1")
