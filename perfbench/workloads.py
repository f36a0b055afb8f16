"""The benchmark's workloads: set-up, one round of reconstructions, and the
checks of each round's outputs against the independent dense reference.

A round is the unit a run repeats. Its timed part runs from the start of
training to the written checkpoint and final report; its checks are not
timed. Every input is derived from the run's --seed.
"""

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from rbmqst import cli, estimators, optimizer, oracle, rbm, runner, samplers

# Acceptance criterion 5 bound on the total |residual| of a trained model.
RESIDUAL_TOL = 0.3
# Acceptance criterion 1: finite-difference step and tolerances.
FD_H, FD_REL, FD_ABS = 1e-5, 1e-5, 1e-8
# Reported exact values must equal the independent dense values this closely.
EXACT_TOL = 1e-9
# Sampled estimates must lie within this many of their own standard errors
# of the dense value.
SE_MARGIN = 5.0


@dataclass
class Round:
    wall_s: float
    epochs: int
    attempted: int
    failed: int
    outdir: Path


def _cli(argv: list) -> int:
    """Run the rbmqst CLI in this process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _sets(spec: dict) -> list:
    return [tok for key, value in spec.items() for tok in ("--set", f"{key}={json.dumps(value)}")]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _target_lists(target_doc: dict):
    obs = [e["pauli"] for e in target_doc["observables"]]
    return obs, np.array([float(e["target"]) for e in target_doc["observables"]])


def _check_exact_report(run_dir: Path, target_doc: dict, label: str) -> tuple[list, ref.Model, np.ndarray, float]:
    """Report's exact residuals and S2 against the dense reference."""
    problems = []
    model = ref.Model.from_checkpoint(run_dir / "checkpoint.json")
    rho = ref.reduced_density_matrix(model)
    obs, targets = _target_lists(target_doc)
    dense_res = np.array([ref.pauli_expectation(rho, o) for o in obs]) - targets
    s2 = ref.s2_bits(rho)
    report = _read_json(run_dir / "report.json")
    for o, r in zip(obs, dense_res):
        got = report["final_residuals"][o]
        if not abs(got - r) <= EXACT_TOL:
            problems.append(f"{label}: residual {o} reported {got!r}, dense {float(r)!r}")
    if not abs(report["s2_bits_exact"] - s2) <= EXACT_TOL:
        problems.append(f"{label}: s2_bits_exact reported {report['s2_bits_exact']!r}, dense {s2!r}")
    return problems, model, dense_res, s2


class _CliWorkload:
    """Reconstructions through `rbmqst train` against a generated target."""

    target: dict
    train: dict

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        self.target_path = self.workdir / "target" / "target.json"
        if _cli(["gen-target", "--out", self.target_path.parent] + _sets(self.target)) != 0:
            raise RuntimeError("gen-target failed")
        self.target_doc = _read_json(self.target_path)

    def run_round(self, r: int) -> Round:
        outdir = self.workdir / f"round{r:03d}"
        seed = samplers.derive_seed(self.seed, r)
        argv = (["train", "--target", self.target_path, "--out", outdir]
                + _sets({"n_sys": self.target["n_sys"], **self.train,
                         "optimizer.seed": seed, "sampler.seed": seed}))
        start = time.perf_counter()
        code = _cli(argv)
        wall = time.perf_counter() - start
        n = self.train.get("sweep", 1)
        if code != 0:
            return Round(wall, 0, n, n, outdir)
        report = _read_json(outdir / "report.json")
        epochs = sum(rep["epochs_run"] for rep in report.get("per_seed", [report]))
        return Round(wall, epochs, n, 0, outdir)

    def enumerated(self, rnd: Round) -> int:
        return 0


class PaperSweep(_CliWorkload):
    """`rbmqst train` sweeping two seeds at the paper's (3, 2, 3, 1024)."""

    name = "paper_sweep"
    target = {"n_sys": 3, "n_env_target": 2, "observable_count": 4, "observable_seed": 7,
              "circuit_seed": 42, "layers": 4}
    # The package's default optimizer settings, which acceptance criterion 5
    # accepts after 300 epochs; shorter runs at larger steps reach its
    # residual bound only some of the time.
    train = {"n_env_model": 2, "m": 3, "sweep": 2, "optimizer.epochs": 300,
             "sampler.n_samples": 1024, "optimizer.samples_per_epoch": 1024,
             "sampler.proposal": "LocalFlip"}

    def check(self, rnd: Round) -> list:
        problems = []
        for s in range(self.train["sweep"]):
            run_dir = rnd.outdir / f"seed_{s:02d}"
            label = f"{run_dir.name} of {rnd.outdir.name}"
            found, _, dense_res, s2 = _check_exact_report(run_dir, self.target_doc, label)
            problems += found
            total = float(np.abs(dense_res).sum())
            if not total < RESIDUAL_TOL:
                problems.append(f"{label}: dense total residual {total:.4f} >= {RESIDUAL_TOL}")
            with open(run_dir / "trace.jsonl") as fh:
                s2_start = json.loads(fh.readline())["entropy_bits"]
            if not s2 > s2_start:
                problems.append(f"{label}: dense S2 {s2:.4f} not above epoch-0 entropy {s2_start:.4f}")
        return problems


class ExactEnum(_CliWorkload):
    """`rbmqst train` with optimizer.exact_sum=true at (6, 6, 12): 4096 configurations."""

    name = "exact_enum"
    target = {"n_sys": 6, "n_env_target": 6, "observable_count": 4, "observable_seed": 7,
              "circuit_seed": 42, "layers": 4}
    train = {"n_env_model": 6, "m": 12, "optimizer.epochs": 12, "optimizer.exact_sum": True}

    def check(self, rnd: Round) -> list:
        label = rnd.outdir.name
        problems, model, _, _ = _check_exact_report(rnd.outdir, self.target_doc, label)
        with open(rnd.outdir / "trace.jsonl") as fh:
            xis = np.array(json.loads(fh.readlines()[-1])["xi_values"])
        obs, targets = _target_lists(self.target_doc)
        params, partition = rbm.load_checkpoint(rnd.outdir / "checkpoint.json")
        constraints = runner.build_constraints(self.target_doc, 1.0)
        cost, analytic = optimizer.exact_cost_and_grad(params, partition, constraints, xis)
        dense_cost = lambda m: ref.penalty_cost(m, obs, targets, xis)
        if not abs(cost - dense_cost(model)) <= EXACT_TOL:
            problems.append(f"{label}: exact cost {cost!r}, dense {dense_cost(model)!r}")
        fd = ref.central_differences(dense_cost, model, FD_H)
        err = np.abs(analytic - fd)
        rel = err / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-300)
        bad = ~((rel <= FD_REL) | (err <= FD_ABS))
        if bad.any():
            i = int(np.argmax(np.where(bad, rel, 0.0)))
            problems.append(f"{label}: {int(bad.sum())} gradient coordinates fail the "
                            f"finite-difference check (worst {i}: analytic {analytic[i]!r}, fd {fd[i]!r})")
        return problems

    def enumerated(self, rnd: Round) -> int:
        return rnd.epochs * 2 ** (self.target["n_sys"] + self.train["n_env_model"])


class WideSampled:
    """Library path at (10, 10, 20, 4096): above the CLI's dense cap."""

    name = "wide_sampled"
    n_sys, n_env, m, n_samples = 10, 10, 20, 4096
    target_qubits = 14
    observable_count, observable_seed, circuit_seed, layers = 4, 7, 42, 4
    epochs = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.initial_s2 = None

    def setup(self) -> None:
        state = oracle.random_circuit_state(oracle.CircuitSpec(
            layers=self.layers, seed=self.circuit_seed, qubit_count=self.target_qubits))
        rho = oracle.partial_trace(state, keep=range(self.n_sys))
        observables = oracle.random_pauli_strings(
            self.n_sys, self.observable_count, np.random.default_rng(self.observable_seed))
        self.constraints = optimizer.ConstraintSet(tuple(
            optimizer.Constraint(obs=o, target=oracle.pauli_expectation_exact(rho, o), xi=0.1)
            for o in observables))
        self.target_s2 = oracle.entropy_exact(rho, 2)  # part of the target, as gen-target writes it
        self.partition = rbm.Partition(n_sys=self.n_sys, n_env=self.n_env)
        self.initial = rbm.init_params(self.partition.n_v, self.m,
                                       np.random.default_rng(self.seed))

    def run_round(self, r: int) -> Round:
        outdir = self.workdir / f"round{r:03d}"
        outdir.mkdir(parents=True)
        seed = samplers.derive_seed(self.seed, r)
        opt = optimizer.OptimizerConfig(epochs=self.epochs, samples_per_epoch=self.n_samples,
                                        seed=seed)
        sampler = samplers.SamplerConfig(n_samples=self.n_samples, seed=seed,
                                         proposal="LocalFlip")
        start = time.perf_counter()
        params, trace = optimizer.train(self.initial, self.constraints,
                                        optimizer.XiSchedule(), opt, sampler)
        self.report(params, trace, seed, outdir)
        wall = time.perf_counter() - start
        failed = int(trace.status != "ok")
        return Round(wall, len(trace.records), 1, failed, outdir)

    def report(self, params, trace, seed: int, outdir: Path) -> None:
        """Final sampled report and checkpoint, as the runner's report does
        above the dense cap, with the standard errors kept."""
        pair = samplers.sample_replicas(
            params, samplers.SamplerConfig(n_samples=self.n_samples,
                                           seed=samplers.derive_seed(seed, 0xE7A1)), 2)
        report = {"observables": {}, "status": trace.status, "epochs_run": len(trace.records)}
        for c in self.constraints:
            est = estimators.estimate_observable(params, self.partition, c.obs, pair[0])
            report["observables"][c.obs.identifier] = {
                "target": c.target, "value": est.value, "std_error": est.std_error}
        swap = estimators.estimate_swap(params, self.partition, pair)
        report["s2_bits"], report["s2_std_error"] = swap.s2_bits, swap.s2_std_error
        rbm.save_checkpoint(params, self.partition, outdir / "checkpoint.json")
        with open(outdir / "report.json", "w") as fh:
            json.dump(report, fh)

    def check(self, rnd: Round) -> list:
        label = rnd.outdir.name
        problems = []
        report = _read_json(rnd.outdir / "report.json")
        rho = ref.reduced_density_matrix(ref.Model.from_checkpoint(rnd.outdir / "checkpoint.json"))
        for o, est in report["observables"].items():
            dense = ref.pauli_expectation(rho, o)
            if not abs(est["value"] - dense) <= SE_MARGIN * est["std_error"]:
                problems.append(f"{label}: sampled <{o}> {est['value']:.4f} +- {est['std_error']:.4f} "
                                f"vs dense {dense:.4f}")
        s2, s2_se = report["s2_bits"], report["s2_std_error"]
        dense_s2 = ref.s2_bits(rho)
        if not abs(s2 - dense_s2) <= SE_MARGIN * s2_se:
            problems.append(f"{label}: sampled S2 {s2:.4f} +- {s2_se:.4f} vs dense {dense_s2:.4f}")
        bound = min(self.n_sys, self.n_env)
        if not s2 <= bound + SE_MARGIN * s2_se:
            problems.append(f"{label}: sampled S2 {s2:.4f} above the bound {bound}")
        if self.initial_s2 is None:
            p = self.initial
            self.initial_s2 = ref.s2_bits(ref.reduced_density_matrix(
                ref.Model(p.a, p.b, p.w, p.beta, self.n_sys)))
        if not dense_s2 > self.initial_s2:
            problems.append(f"{label}: dense S2 {dense_s2:.4f} not above the initial "
                            f"{self.initial_s2:.4f}")
        return problems

    def enumerated(self, rnd: Round) -> int:
        return 0


WORKLOADS = {w.name: w for w in (PaperSweep, WideSampled, ExactEnum)}
