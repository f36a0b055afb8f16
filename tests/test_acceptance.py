"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (entanglement bound on persisted checkpoints) runs last and
checks every checkpoint the earlier criteria persisted into the shared
registry directory, plus a small set it trains itself, so it also holds
when run alone.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    exact_observable,
    exact_trace_power,
    trace_power,
    transition_matrix,
    zero_params,
)
from rbmqst.estimators import estimate_observable, estimate_swap, vne_bits_from_raw_powers
from rbmqst.oracle import (
    CircuitSpec,
    PauliString,
    entropy_exact,
    gibbs_maxent_solve,
    haar_unitary,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
    trace_distance,
)
from rbmqst.optimizer import (
    Constraint,
    ConstraintSet,
    OptimizerConfig,
    XiSchedule,
    train,
)
from rbmqst.rbm import (
    Partition,
    enumerate_model,
    exact_density_matrix,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from rbmqst.runner import ExperimentSpec, cmd_gradcheck, cmd_train
from rbmqst.samplers import (
    PROPOSALS,
    SamplerConfig,
    derive_seed,
    mh_sample,
    sample_replicas,
    tv_distance,
)
from rbmqst.spins import configs_to_indices

CHECKPOINTS: list[Path] = []
REPORT_LINES: list[str] = []


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    REPORT_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytic gradient vs central finite differences

def test_criterion_1_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for sizes in ((2, 1, 2), (3, 2, 3)):
        for seed in range(10):
            rep = cmd_gradcheck(sizes=sizes, seed=seed, h=1e-5,
                                rel_tol=1e-5, abs_tol=1e-8)
            ok &= rep["pass"]
            worst = max(worst, rep["max_rel_err"])
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(1, "gradient check", ok,
           f"20 instances, max rel err {worst:.2e}, {dt:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. exact sums over the enumeration, as training runs them, vs the dense oracle

def test_criterion_2_exact_sum_vs_dense():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n_sys = int(rng.integers(1, 5))
        n_env = int(rng.integers(0, 9 - n_sys))
        m = int(rng.integers(1, 4))
        part = Partition(n_sys=n_sys, n_env=n_env)
        params = init_params(part.n_v, m, rng, std=0.3)
        rho = exact_density_matrix(params, part)
        obs = random_pauli_strings(n_sys, 1, rng)[0]
        worst = max(
            worst,
            abs(exact_observable(params, part, obs) - pauli_expectation_exact(rho, obs)),
            abs(exact_trace_power(params, part, 2) - trace_power(rho, 2)),
            abs(exact_trace_power(params, part, 3) - trace_power(rho, 3)),
        )
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 60.0
    report(2, "exact sum vs dense oracle", ok,
           f"50 instances, worst |diff| {worst:.2e} (<= 1e-10), {dt:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. sampled-estimator calibration on (3, 2, 3)

def test_criterion_3_sampled_calibration():
    t0 = time.perf_counter()
    part = Partition(n_sys=3, n_env=2)
    ok_obs = ok_s2 = 0
    worst_o = worst_s = 0.0
    for trial in range(100):
        rng = np.random.default_rng(derive_seed(2024, trial))
        params = init_params(5, 3, rng, std=0.25)
        rho = exact_density_matrix(params, part)
        obs = random_pauli_strings(3, 1, rng)[0]
        seed = int(rng.integers(2**63))
        cfg_o = SamplerConfig(n_samples=10**4, burn_in=512, thinning=4,
                              n_chains=16, seed=seed)
        est = estimate_observable(params, part, obs, mh_sample(params, cfg_o))
        z_o = abs(est.value - pauli_expectation_exact(rho, obs)) / est.std_error
        cfg_s = SamplerConfig(n_samples=10**5, burn_in=512, thinning=1,
                              n_chains=16, seed=seed + 1)
        sw = estimate_swap(params, part, sample_replicas(params, cfg_s, 2))
        z_s = abs(sw.s2_bits - entropy_exact(rho, 2)) / sw.s2_std_error
        ok_obs += z_o <= 3.0
        ok_s2 += z_s <= 3.0
        worst_o, worst_s = max(worst_o, z_o), max(worst_s, z_s)
    dt = time.perf_counter() - t0
    ok = ok_obs >= 99 and ok_s2 >= 99 and dt < 600.0
    report(3, "sampled-estimator calibration", ok,
           f"obs {ok_obs}/100 within 3 SE (max z {worst_o:.2f}), "
           f"S2 {ok_s2}/100 (max z {worst_s:.2f}), {dt:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 4. MCMC correctness: TV to |psi|^2 and detailed balance

def test_criterion_4_sampler_correctness():
    t0 = time.perf_counter()
    params = init_params(6, 4, np.random.default_rng(3), std=0.3)
    pi = enumerate_model(params)[1]
    cfg = SamplerConfig(n_samples=200000, burn_in=2000, thinning=1,
                        n_chains=32, seed=17)
    tvs = {}
    for proposal in PROPOSALS:
        s = mh_sample(params, replace(cfg, proposal=proposal))
        counts = np.bincount(configs_to_indices(s.spins), minlength=64)
        tvs[proposal] = tv_distance(counts / counts.sum(), pi)

    small = init_params(4, 2, np.random.default_rng(8), std=0.3)
    pi_small = enumerate_model(small)[1]
    db = {}
    for proposal in PROPOSALS:
        t = transition_matrix(small, proposal)
        flow = pi_small[:, None] * t
        db[proposal] = float(np.abs(flow - flow.T).max())
    dt = time.perf_counter() - t0
    ok = all(v < 0.02 for v in tvs.values()) and all(v < 1e-9 for v in db.values()) \
        and dt < 300.0
    report(4, "sampler correctness", ok,
           "TV " + " ".join(f"{k}={v:.4f}" for k, v in tvs.items())
           + " (< 0.02); DB residual "
           + " ".join(f"{k}={v:.1e}" for k, v in db.items())
           + f" (< 1e-9); {dt:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 5. constraint satisfaction across seeds on (3, 3, 3), k = 4

def test_criterion_5_constraint_satisfaction(registry):
    t0 = time.perf_counter()
    state = random_circuit_state(CircuitSpec(layers=4, seed=42, qubit_count=6))
    rho_t = partial_trace(state, keep=range(3))
    obs = random_pauli_strings(3, 4, np.random.default_rng(7))
    cons = ConstraintSet(tuple(
        Constraint(obs=o, target=pauli_expectation_exact(rho_t, o), xi=0.1)
        for o in obs))
    part = Partition(n_sys=3, n_env=3)
    ok_seeds = 0
    totals = []
    for s in range(10):
        seed = derive_seed(123, s)
        p0 = init_params(6, 3, np.random.default_rng(seed))
        opt = OptimizerConfig(epochs=300, samples_per_epoch=1024, seed=seed)
        scfg = SamplerConfig(n_samples=1024, burn_in=256, n_chains=16, seed=0)
        params, trace = train(p0, cons, XiSchedule(), opt, scfg)
        rho_m = exact_density_matrix(params, part)
        res = np.array([pauli_expectation_exact(rho_m, c.obs) - c.target for c in cons])
        tot = float(np.abs(res).sum())
        totals.append(tot)
        ok_seeds += trace.status == "ok" and tot < 0.3 and np.abs(res).max() < 0.1
        path = registry / f"crit5_seed{s}.json"
        save_checkpoint(params, part, path)
        CHECKPOINTS.append(path)
    dt = time.perf_counter() - t0
    ok = ok_seeds >= 8 and dt < 1200.0
    report(5, "constraint satisfaction", ok,
           f"{ok_seeds}/10 seeds meet total<0.3 & per-obs<0.1 "
           f"(totals {min(totals):.3f}..{max(totals):.3f}), {dt:.0f}s (< 1200s)")


# ---------------------------------------------------------------------------
# 6. commuting Z-string constraints reproduce the Gibbs MaxEnt state

def test_criterion_6_gibbs_agreement(registry):
    t0 = time.perf_counter()
    zstrings = [PauliString(s) for s in ("ZII", "IZI", "ZZZ")]
    state = random_circuit_state(CircuitSpec(layers=4, seed=5, qubit_count=6))
    rho_t = partial_trace(state, keep=range(3))
    targets = [pauli_expectation_exact(rho_t, o) for o in zstrings]
    rho_me, _ = gibbs_maxent_solve(zstrings, targets)
    cons = ConstraintSet(tuple(
        Constraint(obs=o, target=t, xi=0.1) for o, t in zip(zstrings, targets)))
    part = Partition(n_sys=3, n_env=3)
    seed = derive_seed(55, 0)
    p0 = init_params(6, 3, np.random.default_rng(seed))
    opt = OptimizerConfig(epochs=600, samples_per_epoch=2048, seed=seed)
    params, trace = train(p0, cons, XiSchedule(xi_max=20.0), opt,
                          SamplerConfig(n_samples=2048, burn_in=256))
    rho_m = exact_density_matrix(params, part)
    td = trace_distance(rho_m, rho_me)
    gap = abs(entropy_exact(rho_m, 2) - entropy_exact(rho_me, 2))
    path = registry / "crit6.json"
    save_checkpoint(params, part, path)
    CHECKPOINTS.append(path)
    dt = time.perf_counter() - t0
    ok = trace.status == "ok" and td < 0.1 and gap < 0.2 and dt < 900.0
    report(6, "Gibbs MaxEnt agreement", ok,
           f"trace distance {td:.4f} (< 0.1), S2 gap {gap:.4f} (< 0.2), "
           f"{dt:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 8. polynomial von Neumann entropy accuracy

def test_criterion_8_vne_polynomial():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    floor = 0.025
    worst = 0.0
    for _ in range(50):
        n_q = int(rng.integers(2, 4))
        d = 2**n_q
        spec = floor + (1.0 - d * floor) * rng.dirichlet(np.ones(d))
        assert spec.min() > 0.02
        u = haar_unitary(d, rng)
        rho = (u * spec) @ u.conj().T
        powers = [trace_power(rho, k) for k in range(2, 13)]
        err = abs(vne_bits_from_raw_powers(powers, 12) - entropy_exact(rho, "vne"))
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-2 and dt < 60.0
    report(8, "polynomial von Neumann entropy", ok,
           f"50 density matrices, worst |err| {worst:.2e} bits (<= 1e-2), "
           f"{dt:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 9. full-scale sweep completes and the cost decreases

def test_criterion_9_full_scale_sweep(registry):
    t0 = time.perf_counter()
    outdir = registry / "crit9"
    spec = ExperimentSpec(
        n_sys=6, n_env_target=4, n_env_model=4, m=4, observable_count=6,
        observable_seed=11, layers=4, circuit_seed=2, sweep=10,
        optimizer=OptimizerConfig(epochs=300, samples_per_epoch=1024, seed=100),
        sampler=SamplerConfig(n_samples=1024, burn_in=256, n_chains=16),
        outdir=str(outdir))
    rep = cmd_train(spec)
    curves = outdir / "curves.csv"
    rows = curves.read_text().splitlines()
    for s in range(10):
        path = outdir / f"seed_{s:02d}" / "checkpoint.json"
        assert path.exists()
        CHECKPOINTS.append(path)
    dt = time.perf_counter() - t0
    decreased = rep["median_final_cost"] < rep["median_epoch1_cost"]
    ok = rep["all_completed"] and decreased and len(rows) == 301 and dt < 7200.0
    report(9, "full-scale sweep", ok,
           f"10 seeds completed={rep['all_completed']}, median cost "
           f"{rep['median_epoch1_cost']:+.3f} -> {rep['median_final_cost']:+.3f} "
           f"(decreased={decreased}), curves rows {len(rows) - 1}, {dt:.0f}s (< 7200s)")


# ---------------------------------------------------------------------------
# 7. entanglement-entropy bound on every persisted checkpoint (runs last)

def _train_own_checkpoints(registry) -> list[Path]:
    """Two short sampled trainings on (2, 2, 2), pushed towards high entropy."""
    part = Partition(n_sys=2, n_env=2)
    cons = ConstraintSet((Constraint(obs=PauliString("ZI"), target=0.1, xi=0.1),))
    paths = []
    for s in range(2):
        seed = derive_seed(77, s)
        p0 = init_params(part.n_v, 2, np.random.default_rng(seed))
        opt = OptimizerConfig(epochs=80, samples_per_epoch=256, learning_rate=0.03, seed=seed)
        params, _ = train(p0, cons, XiSchedule(), opt,
                          SamplerConfig(n_samples=256, burn_in=64, n_chains=8))
        path = registry / f"crit7_seed{s}.json"
        save_checkpoint(params, part, path)
        paths.append(path)
    return paths


def test_criterion_7_entropy_bound(registry):
    zero_path = registry / "zero.json"
    save_checkpoint(zero_params(5, 2), Partition(n_sys=3, n_env=2), zero_path)
    params0, part0 = load_checkpoint(zero_path)
    s2_zero = entropy_exact(exact_density_matrix(params0, part0), 2)

    worst_excess = -np.inf
    checked = 0
    for path in CHECKPOINTS + _train_own_checkpoints(registry):
        params, part = load_checkpoint(path)
        s2 = entropy_exact(exact_density_matrix(params, part), 2)
        bound = float(min(part.n_sys, part.n_env))
        worst_excess = max(worst_excess, s2 - bound)
        checked += 1
    ok = checked >= 1 and worst_excess <= 0.05 and abs(s2_zero) <= 1e-6
    report(7, "entanglement entropy bound", ok,
           f"{checked} trained checkpoints, worst S2 - bound = {worst_excess:+.4f} "
           f"(<= 0.05); zero-parameter S2 = {s2_zero:.2e} (<= 1e-6)")
