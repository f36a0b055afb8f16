"""Augmented-penalty MaxEnt trainer.

Cost: C = -S(rho) + sum_i xi_i * (<O_i> - target_i)^2, entropy in bits.

The estimator formulas live in estimators (observable_terms, renyi_terms,
entropy_terms): each returns its value and the (batch, coefficient) pairs
whose contractions (rbm.contract) sum to its gradient. Here the pairs are
scaled (-1 for the entropy, 2 xi_i r_i for constraint i) and each distinct
evaluated array is contracted once, so sampled and exact_sum modes run the
same code and an epoch evaluates and contracts each configuration array
once: the replica streams (stream 0 doubles as the observable batch), the
permuted replica arrays and the connected arrays of off-diagonal
observables. An exact epoch is one enumeration and one contraction. A
sampled epoch continues the previous epoch's Metropolis-Hastings chains
with a short burn-in (see train).

All of it is verified against central finite differences of the exact
cost (finite_difference_gradient).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .estimators import Replicas, entropy_terms, observable_terms, replicas
from .oracle import PauliString
from .rbm import (
    PARAM_BOUND,
    Partition,
    RbmParams,
    contract,
    pack_parameters,
    unpack_parameters,
)
from .samplers import SamplerConfig, derive_seed, sample_replicas


@dataclass(frozen=True)
class Constraint:
    obs: PauliString
    target: float
    xi: float

    def __post_init__(self):
        if not -1.0 <= self.target <= 1.0:
            raise ValidationError("Pauli target must lie in [-1, 1]")
        if self.xi <= 0:
            raise ValidationError("penalty weight must be positive")


@dataclass(frozen=True)
class ConstraintSet:
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValidationError("constraint set must be nonempty")
        ids = [c.obs.identifier for c in entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("constraint Pauli identifiers must be unique")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class XiSchedule:
    xi_init: float = 0.1
    growth: float = 1.2
    block: int = 10
    xi_max: float = 100.0

    def __post_init__(self):
        if self.xi_init <= 0 or self.xi_init > self.xi_max:
            raise ValidationError("need 0 < xi_init <= xi_max")
        if self.growth < 1.0 or self.block < 1:
            raise ValidationError("growth must be >= 1 and block >= 1")

    def at(self, xi_init: float, epoch: int) -> float:
        return min(xi_init * self.growth ** (epoch // self.block), self.xi_max)


@dataclass(frozen=True)
class OptimizerConfig:
    epochs: int = 300
    learning_rate: float = 0.01
    method: str = "adaptive-moment"  # or "plain-gradient"
    samples_per_epoch: int = 1024
    entropy_mode: str = "renyi2_then_vne"  # or "renyi2"
    vne_cutoff: int = 4
    seed: int = 0
    grad_clip: float = 10.0
    exact_sum: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.samples_per_epoch < 1:
            raise ValidationError("samples_per_epoch must be >= 1")
        if self.vne_cutoff < 2:
            raise ValidationError("vne_cutoff must be >= 2")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.method not in ("plain-gradient", "adaptive-moment"):
            raise ValidationError("method must be plain-gradient or adaptive-moment")
        if self.entropy_mode not in ("renyi2", "renyi2_then_vne"):
            raise ValidationError("entropy_mode must be renyi2 or renyi2_then_vne")


@dataclass
class TrainingTrace:
    """Per-epoch records plus a final status ("ok" | "diverged")."""

    records: list = field(default_factory=list)
    status: str = "ok"
    message: str = ""
    clip_events: int = 0
    entropy_floor_events: int = 0


def cost(entropy_bits: float, residuals, xis) -> float:
    """C = -entropy + sum_i xi_i * residual_i^2."""
    residuals = np.asarray(residuals, dtype=float)
    xis = np.asarray(xis, dtype=float)
    return float(-entropy_bits + xis @ residuals**2)


def _contract_pairs(params: RbmParams, pairs) -> np.ndarray:
    """Sum of contractions, one per distinct batch (coefficients merged)."""
    merged = {}
    for batch, c in pairs:
        merged[batch] = merged[batch] + c if batch in merged else c
    return sum(contract(params, batch, c) for batch, c in merged.items())


# ---------------------------------------------------------------------------
# finite differences and the exact cost

def finite_difference_gradient(cost_fn, params: RbmParams, h: float) -> np.ndarray:
    """Central finite differences of cost_fn(RbmParams), per packed coordinate."""
    if h <= 0:
        raise ValidationError("h must be positive")
    x0 = pack_parameters(params)
    fn = lambda x: cost_fn(unpack_parameters(x, params.n_v, params.m, params.beta))
    grad = np.empty(x0.size)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = fn(xp), fn(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError(f"non-finite cost at perturbed coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def _penalty_terms(params: RbmParams, partition: Partition, constraints: ConstraintSet,
                   xis: np.ndarray, reps: Replicas, n_c: int | None
                   ) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Entropy in bits (S2, or the polynomial von Neumann entropy at cutoff
    n_c), residuals, grad C and whether the S2 floor bound, all from one
    evaluated set of replicas whose stream 0 is the observable batch."""
    s_bits, entropy_pairs, floored = entropy_terms(reps, n_c)
    pairs = [(batch, -c) for batch, c in entropy_pairs]
    residuals = np.empty(len(constraints))
    for i, con in enumerate(constraints):
        value, _, obs_pairs = observable_terms(params, partition, con.obs, reps.streams[0])
        residuals[i] = value - con.target
        scale = 2.0 * xis[i] * residuals[i]
        pairs += [(batch, scale * c) for batch, c in obs_pairs]
    return s_bits, residuals, _contract_pairs(params, pairs), floored


def exact_cost_and_grad(params: RbmParams, partition: Partition,
                        constraints: ConstraintSet, xis,
                        entropy_mode: str = "renyi2", n_c: int = 12
                        ) -> tuple[float, np.ndarray]:
    """Deterministic exact-sum cost and analytic gradient (gradcheck target)."""
    xis = np.asarray(xis, dtype=float)
    reps = replicas(params, partition)
    s_bits, residuals, grad, _ = _penalty_terms(
        params, partition, constraints, xis, reps, None if entropy_mode == "renyi2" else n_c)
    return cost(s_bits, residuals, xis), grad


# ---------------------------------------------------------------------------
# training loop

class _Adam:
    def __init__(self, size: int, lr: float, b1: float = 0.9, b2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, x: np.ndarray, g: np.ndarray, lr: float | None = None) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return x - (self.lr if lr is None else lr) * mhat / (np.sqrt(vhat) + self.eps)


def _clip_params_vector(x: np.ndarray) -> tuple[np.ndarray, int]:
    clipped = np.clip(x, -PARAM_BOUND, PARAM_BOUND)
    return clipped, int((clipped != x).sum())


def train(initial: RbmParams, constraints: ConstraintSet, schedule: XiSchedule,
          opt: OptimizerConfig, sampler: SamplerConfig) -> tuple[RbmParams, TrainingTrace]:
    """Run the MaxEnt training loop; returns final parameters and the trace.

    Per epoch: draw replica streams, estimate entropy and all constrained
    observables from them, assemble
    grad C = -grad S + sum_i 2 xi_i r_i grad<O_i>, update (norm-clipped,
    magnitude-clipped), grow xi per schedule, append a trace record.
    With entropy_mode = renyi2_then_vne the entropy term switches to the
    polynomial von Neumann estimate for the final 10% of epochs.

    Constraint i starts at its own Constraint.xi and grows by the schedule;
    schedule.xi_init is only the value that `rbmqst train` gives every
    constraint (runner.build_constraints).

    Sampled chains persist across epochs (persistent contrastive
    divergence, Tieleman, ICML 2008): an epoch with as many streams as the
    last continues its chains with sampler.burn_in // 8 steps; epoch 0 and
    the switch to vne_cutoff streams start fresh with the full burn_in. A
    record's autocorr_time is the largest of its streams' (None if exact).

    A non-finite cost or a numerical failure (NumericalError, which
    includes EstimationError) halts training, returning the partial trace
    with status "diverged".
    """
    n_sys = constraints.entries[0].obs.n_qubits
    if any(c.obs.n_qubits != n_sys for c in constraints):
        raise ValidationError("constraint observables must share a qubit count")
    if initial.n_v < n_sys:
        raise ValidationError("model has fewer visible units than system qubits")
    partition = Partition(n_sys=n_sys, n_env=initial.n_v - n_sys)

    params = initial
    trace = TrainingTrace()
    x = pack_parameters(params)
    adam = _Adam(x.size, opt.learning_rate) if opt.method == "adaptive-moment" else None
    n_vne = max(1, round(0.1 * opt.epochs)) if opt.entropy_mode == "renyi2_then_vne" else 0
    ends = None  # the last sampled epoch's chain end states
    for epoch in range(opt.epochs):
        vne_phase = epoch >= opt.epochs - n_vne
        xis = np.array([schedule.at(c.xi, epoch) for c in constraints])
        try:
            if opt.exact_sum:
                reps = replicas(params, partition)
                acceptance = autocorr = None
            else:
                k = opt.vne_cutoff if vne_phase else 2
                if ends is not None and len(ends) != k * sampler.n_chains:
                    ends = None
                cfg = replace(sampler, n_samples=opt.samples_per_epoch,
                              seed=derive_seed(opt.seed, 0x45504F43 + epoch),
                              burn_in=sampler.burn_in if ends is None else sampler.burn_in // 8)
                streams = sample_replicas(params, cfg, k, start=ends)
                ends = np.concatenate([s.chain_view()[:, -1] for s in streams])
                acceptance = float(np.mean([s.diagnostics["acceptance_rate"] for s in streams]))
                autocorr = max(s.diagnostics["autocorr_time"] for s in streams)
                reps = replicas(params, partition, streams)
            s_bits, residuals, grad_total, floored = _penalty_terms(
                params, partition, constraints, xis, reps, opt.vne_cutoff if vne_phase else None)
            trace.entropy_floor_events += floored
        except NumericalError as exc:
            trace.status = "diverged"
            trace.message = f"epoch {epoch}: {exc}"
            break

        epoch_cost = cost(s_bits, residuals, xis)
        grad_norm = float(np.linalg.norm(grad_total))
        if not (np.isfinite(epoch_cost) and np.isfinite(grad_norm)):
            trace.status = "diverged"
            trace.message = f"epoch {epoch}: non-finite cost or gradient"
            break
        if grad_norm > opt.grad_clip:
            grad_total = grad_total * (opt.grad_clip / grad_norm)
            trace.clip_events += 1
        # Full learning rate for the first half, cosine-annealed to a 5%
        # floor afterwards: adaptive-moment updates jitter by ~lr at
        # stationarity, which leaves noise-injected coherences of that scale
        # in the state unless the late-stage step shrinks.
        frac = epoch / max(opt.epochs - 1, 1)
        anneal = 1.0 if frac < 0.5 else 0.5 * (1.0 + math.cos(math.pi * (2.0 * frac - 1.0)))
        lr_t = opt.learning_rate * max(0.05, anneal)
        x = adam.step(x, grad_total, lr_t) if adam else x - lr_t * grad_total
        x, n_clipped = _clip_params_vector(x)
        if n_clipped:
            trace.clip_events += 1
        params = unpack_parameters(x, params.n_v, params.m, params.beta)

        trace.records.append({
            "epoch": epoch,
            "cost": epoch_cost,
            "entropy_bits": float(s_bits),
            "residuals": {c.obs.identifier: float(r) for c, r in zip(constraints, residuals)},
            "acceptance_rate": acceptance,
            "autocorr_time": autocorr,
            "xi_values": xis.tolist(),
            "grad_norm": grad_norm,
        })

    return params, trace
