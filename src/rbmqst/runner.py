"""Experiment orchestration: target generation, training runs (optionally a
seed sweep), checkpoint evaluation, gradient checks and sampler benchmarks.

Output layout inside a run directory:
    spec.json, target.json, trace.jsonl, checkpoint.json, report.json,
    curves.csv   (curves: epoch, cost, entropy_bits, total_residual)
Sweep runs write per-seed subdirectories seed_00/... plus aggregated
median curves and report at the root.

The default output root is $RBMQST_OUTPUT_ROOT (falling back to the
current directory); spec.outdir is resolved against it.
"""

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .estimators import estimate_observable, estimate_swap
from .optimizer import (
    Constraint,
    ConstraintSet,
    OptimizerConfig,
    XiSchedule,
    exact_cost_and_grad,
    finite_difference_gradient,
    train,
)
from .oracle import (
    DENSE_CAP,
    CircuitSpec,
    PauliString,
    check_cap,
    entropy_exact,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
)
from .rbm import (
    Partition,
    RbmParams,
    coord_label,
    exact_density_matrix,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .samplers import (
    PROPOSALS,
    SamplerConfig,
    derive_seed,
    fit_surrogate,
    mh_sample,
    sample_replicas,
    exact_target_distribution,
    tv_distance,
)
from .spins import all_configs, configs_to_indices

OUTPUT_ROOT_ENV = "RBMQST_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentSpec:
    n_sys: int = 3
    n_env_target: int = 2
    n_env_model: int = 2
    m: int = 3
    observable_count: int = 4
    observable_seed: int = 7
    layers: int = 4
    circuit_seed: int = 42
    sweep: int = 1
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    xi: XiSchedule = field(default_factory=XiSchedule)
    outdir: str = "run"

    def __post_init__(self):
        if self.n_sys < 1 or self.n_env_target < 0 or self.n_env_model < 0:
            raise ValidationError("qubit counts out of range")
        if self.m < 1:
            raise ValidationError("hidden unit count must be >= 1")
        if self.observable_count < 1:
            raise ValidationError("observable count must be >= 1")
        if self.layers < 1:
            raise ValidationError("layers must be >= 1")
        if self.sweep < 1:
            raise ValidationError("sweep must be >= 1")
        check_cap(self.n_sys + self.n_env_target)
        # Sampled training never enumerates the model's configurations; the
        # exact sum and the dense Trotter proposal matrix do.
        if self.optimizer.exact_sum or self.sampler.proposal == "SurrogateTrotter":
            check_cap(self.n_sys + self.n_env_model)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        doc = dict(doc)
        try:
            for key, typ in (("sampler", SamplerConfig), ("optimizer", OptimizerConfig),
                             ("xi", XiSchedule)):
                if key in doc and isinstance(doc[key], dict):
                    doc[key] = typ(**doc[key])
            return cls(**doc)
        except TypeError as exc:
            raise ValidationError(f"bad experiment spec: {exc}") from exc


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def resolve_outdir(spec_or_path) -> Path:
    rel = spec_or_path.outdir if isinstance(spec_or_path, ExperimentSpec) else spec_or_path
    path = Path(rel)
    return path if path.is_absolute() else output_root() / path


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _write_curves(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "cost", "entropy_bits", "total_residual"])
        writer.writerows(rows)


def _trace_rows(records: list[dict]) -> list[tuple]:
    return [(r["epoch"], r["cost"], r["entropy_bits"],
             sum(abs(v) for v in r["residuals"].values())) for r in records]


# ---------------------------------------------------------------------------
# gen-target

def cmd_gen_target(spec: ExperimentSpec, outdir: Path | None = None) -> dict:
    """Random-circuit target state: exact observable targets and S2."""
    outdir = resolve_outdir(spec) if outdir is None else Path(outdir)
    total = spec.n_sys + spec.n_env_target
    state = random_circuit_state(CircuitSpec(layers=spec.layers, seed=spec.circuit_seed,
                                             qubit_count=total))
    rho = partial_trace(state, keep=range(spec.n_sys))
    rng = np.random.default_rng(spec.observable_seed)
    observables = random_pauli_strings(spec.n_sys, spec.observable_count, rng)
    doc = {
        "system_qubits": spec.n_sys,
        "env_qubits": spec.n_env_target,
        "circuit_seed": spec.circuit_seed,
        "layers": spec.layers,
        "observables": [
            {"pauli": o.identifier, "target": pauli_expectation_exact(rho, o)}
            for o in observables
        ],
        "exact_entropy_s2_bits": entropy_exact(rho, 2),
    }
    _write_json(outdir / "target.json", doc)
    _write_json(outdir / "spec.json", spec.to_dict())
    return doc


def load_target(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        doc["system_qubits"] = int(doc["system_qubits"])
        for entry in doc["observables"]:
            PauliString(entry["pauli"])
            float(entry["target"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed target file: {exc}") from exc
    return doc


def build_constraints(target_doc: dict, xi_init: float) -> ConstraintSet:
    return ConstraintSet(tuple(
        Constraint(obs=PauliString(e["pauli"]), target=float(e["target"]), xi=xi_init)
        for e in target_doc["observables"]))


# ---------------------------------------------------------------------------
# train

def _dense_eval(params: RbmParams, partition: Partition,
                constraints: ConstraintSet) -> tuple[dict, float] | None:
    """Exact residuals and S2 from the dense density matrix; None above DENSE_CAP."""
    if partition.n_v > DENSE_CAP:
        return None
    rho = exact_density_matrix(params, partition)
    residuals = {c.obs.identifier: pauli_expectation_exact(rho, c.obs) - c.target
                 for c in constraints}
    return residuals, entropy_exact(rho, 2)


def _sampled_eval(params: RbmParams, partition: Partition, constraints: ConstraintSet,
                  sampler: SamplerConfig) -> tuple[dict, dict, float, float]:
    """Sampled residuals, their standard errors, S2 and its standard error."""
    pair = sample_replicas(params, sampler, 2)
    ests = {c.obs.identifier: estimate_observable(params, partition, c.obs, pair[0])
            for c in constraints}
    residuals = {c.obs.identifier: ests[c.obs.identifier].value - c.target for c in constraints}
    std_errors = {key: est.std_error for key, est in ests.items()}
    swap = estimate_swap(params, partition, pair)
    return residuals, std_errors, swap.s2_bits, swap.s2_std_error


def _report(params: RbmParams, partition: Partition, constraints: ConstraintSet,
            trace, wall_per_epoch: float, sampler: SamplerConfig) -> dict:
    eval_cfg = replace(sampler, seed=derive_seed(sampler.seed, 0xE7A1),
                       n_samples=max(sampler.n_samples, 4096))
    sampled, std_errors, s2_sampled, s2_se = _sampled_eval(params, partition, constraints,
                                                           eval_cfg)
    dense = _dense_eval(params, partition, constraints)
    final, s2_exact = dense if dense is not None else (sampled, None)
    return {
        "final_residuals": final,
        "total_residual": float(sum(abs(v) for v in final.values())),
        "sampled_residuals": sampled,
        "sampled_std_errors": std_errors,
        "s2_bits_sampled": s2_sampled,
        "s2_std_error_sampled": s2_se,
        "s2_bits_exact": s2_exact,
        "entropy_bound_bits": float(min(partition.n_sys, partition.n_env)),
        "wall_clock_per_epoch_s": wall_per_epoch,
        "epochs_run": len(trace.records),
        "status": trace.status,
        "message": trace.message,
        "clip_events": trace.clip_events,
    }


def _single_run(spec: ExperimentSpec, target_doc: dict, run_dir: Path, seed: int) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    constraints = build_constraints(target_doc, spec.xi.xi_init)
    partition = Partition(n_sys=target_doc["system_qubits"], n_env=spec.n_env_model)
    rng = np.random.default_rng(seed)
    initial = init_params(partition.n_v, spec.m, rng)
    opt = replace(spec.optimizer, seed=seed)
    start = time.perf_counter()
    params, trace = train(initial, constraints, spec.xi, opt, spec.sampler)
    wall = (time.perf_counter() - start) / max(len(trace.records), 1)
    with open(run_dir / "trace.jsonl", "w") as fh:
        for record in trace.records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    save_checkpoint(params, partition, run_dir / "checkpoint.json")
    _write_curves(run_dir / "curves.csv", _trace_rows(trace.records))
    report = _report(params, partition, constraints, trace, wall, spec.sampler)
    _write_json(run_dir / "report.json", report)
    return report


def cmd_train(spec: ExperimentSpec, target_path=None, outdir: Path | None = None) -> dict:
    """Train against a target file (generated first when none is given)."""
    outdir = resolve_outdir(spec) if outdir is None else Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if target_path is None:
        target_doc = cmd_gen_target(spec, outdir)
    else:
        target_doc = load_target(target_path)
        _write_json(outdir / "target.json", target_doc)
    _write_json(outdir / "spec.json", spec.to_dict())

    if spec.sweep == 1:
        return _single_run(spec, target_doc, outdir, spec.optimizer.seed)

    seeds = [derive_seed(spec.optimizer.seed, s) for s in range(spec.sweep)]
    dirs = [outdir / f"seed_{s:02d}" for s in range(spec.sweep)]
    reports = [_single_run(spec, target_doc, d, seed) for d, seed in zip(dirs, seeds)]

    curve_stack = []
    for d in dirs:
        with open(d / "trace.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        curve_stack.append(_trace_rows(records))
    n_epochs = min(len(c) for c in curve_stack)
    median_rows = []
    for e in range(n_epochs):
        cols = np.array([c[e][1:] for c in curve_stack], dtype=float)
        med = np.median(cols, axis=0)
        median_rows.append((e, med[0], med[1], med[2]))
    _write_curves(outdir / "curves.csv", median_rows)
    aggregate = {
        "sweep": spec.sweep,
        "per_seed": reports,
        "median_final_cost": float(np.median([c[-1][1] for c in curve_stack])),
        "median_epoch1_cost": float(np.median([c[min(1, len(c) - 1)][1] for c in curve_stack])),
        "all_completed": all(r["status"] == "ok" for r in reports),
    }
    _write_json(outdir / "report.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# eval

def cmd_eval(checkpoint_path, target_path, outdir: Path | None = None,
             sampler: SamplerConfig | None = None) -> dict:
    """Recompute residuals and entropies for a checkpoint (exact mode when
    the size permits, sampled otherwise); checks the entanglement bound
    S2 <= min(n_sys, n_env_model)."""
    params, partition = load_checkpoint(checkpoint_path)
    target_doc = load_target(target_path)
    if target_doc["system_qubits"] != partition.n_sys:
        raise ValidationError("checkpoint and target disagree on system size")
    constraints = build_constraints(target_doc, 1.0)
    bound = float(min(partition.n_sys, partition.n_env))
    dense = _dense_eval(params, partition, constraints)
    if dense is not None:
        mode, (residuals, s2) = "exact", dense
    else:
        sampler = sampler or SamplerConfig(n_samples=8192, burn_in=1024, thinning=2)
        mode = "sampled"
        residuals, _, s2, _ = _sampled_eval(params, partition, constraints, sampler)
    report = {
        "mode": mode,
        "final_residuals": residuals,
        "total_residual": float(sum(abs(v) for v in residuals.values())),
        "s2_bits": s2,
        "entropy_bound_bits": bound,
        "within_entropy_bound": bool(s2 <= bound + 0.05),
        "target_exact_entropy_s2_bits": target_doc.get("exact_entropy_s2_bits"),
    }
    if outdir is not None:
        _write_json(Path(outdir) / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(sizes=(2, 1, 2), seed: int = 0, h: float = 1e-5,
                  rel_tol: float = 1e-5, abs_tol: float = 1e-8) -> dict:
    """Exact-mode analytic cost gradient vs central finite differences on a
    random instance; reports the worst coordinate."""
    n_sys, n_env, m = sizes
    partition = Partition(n_sys=n_sys, n_env=n_env)
    rng = np.random.default_rng(seed)
    params = init_params(partition.n_v, m, rng, std=0.2)
    observables = random_pauli_strings(n_sys, min(2, 4**n_sys - 1), rng)
    constraints = ConstraintSet(tuple(
        Constraint(obs=o, target=float(rng.uniform(-0.5, 0.5)), xi=1.0)
        for o in observables))
    xis = rng.uniform(0.5, 2.0, size=len(constraints))

    _, analytic = exact_cost_and_grad(params, partition, constraints, xis)
    fd = finite_difference_gradient(
        lambda p: exact_cost_and_grad(p, partition, constraints, xis)[0], params, h)
    scale = np.maximum(np.abs(fd), np.abs(analytic))
    err = np.abs(analytic - fd)
    rel = np.where(scale > abs_tol, err / np.maximum(scale, 1e-300), 0.0)
    worst = int(np.argmax(rel))
    ok = bool(np.all((rel <= rel_tol) | (err <= abs_tol)))
    return {
        "pass": ok,
        "max_rel_err": float(rel[worst]),
        "worst_coordinate": coord_label(params, worst),
        "abs_err_at_worst": float(err[worst]),
        "sizes": list(sizes),
        "seed": seed,
        "h": h,
        "n_coordinates": int(analytic.size),
    }


# ---------------------------------------------------------------------------
# bench-sampler

def cmd_bench_sampler(spec: ExperimentSpec, outdir: Path | None = None) -> dict:
    """TV distance to the exact |psi|^2 law, acceptance rate and
    autocorrelation time for every proposal kind on one RBM instance."""
    outdir = resolve_outdir(spec) if outdir is None else Path(outdir)
    partition = Partition(n_sys=spec.n_sys, n_env=spec.n_env_model)
    check_cap(partition.n_v)
    rng = np.random.default_rng(spec.optimizer.seed)
    params = init_params(partition.n_v, spec.m, rng, std=0.3)
    exact = exact_target_distribution(params)
    surrogate = fit_surrogate(params, all_configs(partition.n_v))
    results = []
    for proposal in PROPOSALS:
        cfg = replace(spec.sampler, proposal=proposal)
        sample_set = mh_sample(params, cfg, surrogate if proposal == "SurrogateTrotter" else None)
        counts = np.bincount(configs_to_indices(sample_set.spins), minlength=2**partition.n_v)
        diag = dict(sample_set.diagnostics)
        diag["tv_distance_if_exact_available"] = tv_distance(counts / counts.sum(), exact)
        results.append(diag)
    doc = {"n_v": partition.n_v, "m": spec.m, "surrogate_residual": surrogate.residual,
           "proposals": results}
    _write_json(outdir / "bench.json", doc)
    return doc
