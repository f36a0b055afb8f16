"""Seed-tail harness: acceptance criteria 5 and 6's trainings on many seeds.

Run from the root of a source checkout (the package is imported from ./src):

    python3 scripts/seed_tail.py --seeds 12 --jobs 2 --out seed_tail.json

Each criterion's set-up, exactly as tests/test_acceptance.py builds it,
trains on K seeds that no test uses: derive_seed(123, 100 + s) for
criterion 5 and derive_seed(55, 100 + s) for criterion 6, s = F..F+K-1
(--first F, default 0, extends an earlier run's seeds). Each
seed trains in two lanes: "sampled", as the tests train, and "exact_sum",
the same optimizer and schedule with the exact sum in place of sampling, so
the gap between the lanes is sampling noise, not the optimizer.

One JSON line per training goes to stdout, then a summary object (also
written to --out if given). Per set-up and lane it holds the failures
against the criterion's own per-seed bounds (criterion 5: status ok, total
|residual| < 0.3 and every |residual| < 0.1; criterion 6: status ok, trace
distance < 0.1 and S2 gap < 0.2) and the quantiles of trace distance and
S2 gap to the MaxEnt state of the set-up's constraints (oracle.gibbs_maxent_solve,
for criterion 5's non-commuting set as for criterion 6's commuting one), of
the max |residual| of the trained state, and of the epochs until the total
|residual| recorded in the training trace first drops under 0.3.
"""

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rbmqst.errors import NumericalError  # noqa: E402
from rbmqst.optimizer import (  # noqa: E402
    Constraint,
    ConstraintSet,
    OptimizerConfig,
    XiSchedule,
    train,
)
from rbmqst.oracle import (  # noqa: E402
    CircuitSpec,
    PauliString,
    entropy_exact,
    gibbs_maxent_solve,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
    trace_distance,
)
from rbmqst.rbm import Partition, exact_density_matrix, init_params  # noqa: E402
from rbmqst.samplers import SamplerConfig, derive_seed  # noqa: E402

SETUPS = ("criterion_5", "criterion_6")
LANES = ("sampled", "exact_sum")
SEED_OFFSET = 100
RESIDUAL_TOTAL = 0.3
QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


def _reduced_target(circuit_seed: int):
    state = random_circuit_state(CircuitSpec(layers=4, seed=circuit_seed, qubit_count=6))
    return partial_trace(state, keep=range(3))


def _setup(name: str, s: int) -> dict:
    """Constraints, schedule, configs and seed of one training."""
    if name == "criterion_5":
        rho_t = _reduced_target(42)
        obs = random_pauli_strings(3, 4, np.random.default_rng(7))
        targets = [pauli_expectation_exact(rho_t, o) for o in obs]
        seed = derive_seed(123, SEED_OFFSET + s)
        return dict(obs=obs, targets=targets, seed=seed, schedule=XiSchedule(),
                    opt=OptimizerConfig(epochs=300, samples_per_epoch=1024, seed=seed),
                    sampler=SamplerConfig(n_samples=1024, burn_in=256, n_chains=16, seed=0))
    obs = [PauliString(z) for z in ("ZII", "IZI", "ZZZ")]
    rho_t = _reduced_target(5)
    targets = [pauli_expectation_exact(rho_t, o) for o in obs]
    seed = derive_seed(55, SEED_OFFSET + s)
    return dict(obs=obs, targets=targets, seed=seed, schedule=XiSchedule(xi_max=20.0),
                opt=OptimizerConfig(epochs=600, samples_per_epoch=2048, seed=seed),
                sampler=SamplerConfig(n_samples=2048, burn_in=256))


def run_one(name: str, lane: str, s: int) -> dict:
    """Train one seed of one set-up in one lane and measure the outcome."""
    st = _setup(name, s)
    cons = ConstraintSet(tuple(Constraint(obs=o, target=t, xi=0.1)
                               for o, t in zip(st["obs"], st["targets"])))
    part = Partition(n_sys=3, n_env=3)
    opt = replace(st["opt"], exact_sum=lane == "exact_sum")
    t0 = time.perf_counter()
    params, trace = train(init_params(6, 3, np.random.default_rng(st["seed"])), cons,
                          st["schedule"], opt, st["sampler"])
    wall = time.perf_counter() - t0
    totals = [sum(abs(v) for v in r["residuals"].values()) for r in trace.records]
    settled = next((r["epoch"] for r, t in zip(trace.records, totals) if t < RESIDUAL_TOTAL), None)
    out = {"setup": name, "lane": lane, "s": s, "seed": st["seed"], "status": trace.status,
           "message": trace.message, "max_residual": None, "total_residual": None,
           "epochs_to_residual_0.3": settled, "trace_distance": None, "s2_gap": None,
           "wall_s": round(wall, 2), "failed": True}
    try:
        rho_m = exact_density_matrix(params, part)
    except NumericalError as exc:  # a model with an exact zero amplitude
        out["message"] += f"; final model: {exc}"
        return out
    res = np.abs([pauli_expectation_exact(rho_m, c.obs) - c.target for c in cons])
    out["max_residual"], out["total_residual"] = float(res.max()), float(res.sum())
    rho_me = gibbs_maxent_solve(st["obs"], st["targets"])[0]
    out["trace_distance"] = float(trace_distance(rho_m, rho_me))
    out["s2_gap"] = float(abs(entropy_exact(rho_m, 2) - entropy_exact(rho_me, 2)))
    if name == "criterion_5":
        out["failed"] = not (trace.status == "ok" and res.sum() < RESIDUAL_TOTAL and res.max() < 0.1)
    else:
        out["failed"] = not (trace.status == "ok" and out["trace_distance"] < 0.1
                             and out["s2_gap"] < 0.2)
    return out


def _quantiles(values: list) -> dict | None:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {f"q{round(100 * q)}": float(np.quantile(values, q)) for q in QUANTILES}


def summarize(rows: list[dict]) -> dict:
    summary = {}
    for name in SETUPS:
        for lane in LANES:
            group = [r for r in rows if r["setup"] == name and r["lane"] == lane]
            if not group:
                continue
            summary[f"{name}/{lane}"] = {
                "seeds": len(group),
                "failures": sum(r["failed"] for r in group),
                "never_under_0.3": sum(r["epochs_to_residual_0.3"] is None for r in group),
                **{key: _quantiles([r[key] for r in group])
                   for key in ("trace_distance", "s2_gap", "max_residual",
                               "epochs_to_residual_0.3")},
                "wall_s_total": round(sum(r["wall_s"] for r in group), 1),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=12, help="seeds per set-up and lane (K)")
    parser.add_argument("--first", type=int, default=0, help="index of the first seed (F)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (at most 4)")
    parser.add_argument("--setups", nargs="+", choices=SETUPS, default=list(SETUPS))
    parser.add_argument("--lanes", nargs="+", choices=LANES, default=list(LANES))
    parser.add_argument("--out", type=Path, help="also write the summary JSON here")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.first < 0 or not 1 <= args.jobs <= 4:
        parser.error("need --seeds >= 1, --first >= 0 and 1 <= --jobs <= 4")
    tasks = [(name, lane, s) for name in args.setups for lane in args.lanes
             for s in range(args.first, args.first + args.seeds)]
    rows = []
    with ProcessPoolExecutor(args.jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        for row in pool.map(run_one, *zip(*tasks)):
            print(json.dumps(row), flush=True)
            rows.append(row)
    summary = summarize(rows)
    print(json.dumps(summary, indent=1))
    if args.out:
        args.out.write_text(json.dumps({"rows": rows, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
