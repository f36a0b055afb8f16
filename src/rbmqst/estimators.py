"""Sampling estimators for observables and Renyi/von Neumann entropies.

Estimates average over the WeightedBatches that replicas() evaluates: one
per sample stream (samplers.sample_replicas output, weights 1/N), or given
no streams the enumeration of all configurations (rbm.enumerate_model,
weights normalized |psi|^2: exact, comparable with the dense oracle). The
*_terms functions below take either, so sampled and exact-sum training run
one code path; estimate_observable and estimate_swap report sampled values
with their standard errors.

Pauli local estimator: a Pauli string connects each configuration v to
exactly one partner v' (flip the X/Y support on the system spins); the
matrix element under spin +1 <-> bit 0 is

    <v|P|v'>  =  prod_{Z sites} v_i  *  prod_{Y sites} (-i v_i)

so O_loc(v) = <v|P|v'> * psi(v')/psi(v).

Entropies use the replica trick: Tr rho_A^n is the mean over n independent
sample streams of prod_k psi(w_k)/psi(u_k), where w_k carries the A-region
(system) spins of stream k+1 (cyclic) and the environment spins of stream k.

This module is the one place that knows the estimator formulas. Beside a
value, observable_terms, renyi_terms and entropy_terms return (batch, c)
pairs: with F(v) = d log psi / d x, the gradient of the value is the sum
over pairs of Re sum_n c_n F(v_n) (rbm.contract). A caller that scales and
merges the pairs of every term contracts each evaluated array once.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EstimationError, ValidationError
from .oracle import PauliString
from .rbm import Batch, Partition, RbmParams, enumerate_model, evaluate, normalized_amplitudes
from .samplers import SampleSet, integrated_autocorr_time
from .spins import configs_to_indices

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EstimateResult:
    value: float
    std_error: float


@dataclass(frozen=True)
class SwapResult:
    """Second Renyi entropy in bits, from a <SWAP_A> estimate."""

    s2_bits: float
    s2_std_error: float


def _series_error(series: np.ndarray, n_chains: int, chain_len: int) -> float:
    """Standard error of the series mean: the larger of the
    autocorrelation-corrected pooled estimate and the between-chain spread
    (the windowed tau can miss slow modes that independent chains expose)."""
    n = series.size
    if n < 2:
        return 0.0
    chains = series.reshape(n_chains, chain_len)
    tau = integrated_autocorr_time(chains)
    se = float(series.std(ddof=1) / math.sqrt(n / tau))
    if n_chains >= 2 and chain_len >= 2:
        between = float(chains.mean(axis=1).std(ddof=1) / math.sqrt(n_chains))
        se = max(se, between)
    return se


# ---------------------------------------------------------------------------
# weighted batches: a sample set and an enumeration are both just a batch

@dataclass(frozen=True, eq=False)
class WeightedBatch:
    """An evaluated configuration array and the weights of its mean: 1/N over
    a sample set (chain-major, n_chains x chain_len, for error bars) or
    normalized |psi|^2 over the enumeration of all configurations
    (n_chains = 0: exact)."""

    ev: Batch
    weights: np.ndarray
    n_chains: int = 0
    chain_len: int = 0

    @property
    def exact(self) -> bool:
        return self.n_chains == 0

    def estimate(self, series: np.ndarray) -> EstimateResult:
        """Mean of a real per-sample series over a sample set, with its
        standard error."""
        return EstimateResult(value=float(self.weights @ series),
                              std_error=_series_error(series, self.n_chains, self.chain_len))


def _sampled_batch(params: RbmParams, samples: SampleSet) -> WeightedBatch:
    n = samples.n_samples
    return WeightedBatch(evaluate(params, samples.spins), np.full(n, 1.0 / n),
                         samples.n_chains, samples.chain_len)


# ---------------------------------------------------------------------------
# observables

def pauli_action(obs: PauliString, partition: Partition,
                 configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected configurations and matrix elements <v|P (x) I_env|v'>."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    sys = configs[:, :partition.n_sys]
    z = obs.site_mask("Z")
    y = obs.site_mask("Y")
    flip = obs.site_mask("XY")
    coeff = np.prod(sys[:, z], axis=1) * np.prod(-1j * sys[:, y], axis=1)
    connected = configs.copy()
    connected[:, :partition.n_sys][:, flip] *= -1.0
    return np.asarray(coeff, dtype=complex), connected


def observable_terms(params: RbmParams, partition: Partition, obs: PauliString,
                     batch: WeightedBatch) -> tuple[float, np.ndarray, list]:
    """<O> over a weighted batch, the local estimators
    O_loc(v) = <v|O|v'> psi(v')/psi(v), and the gradient pairs of <O>:

        d<O> = Re sum w (F(v)* + F(v')) O_loc(v)  -  <O> sum w 2 Re F(v)

    with v' the Pauli-connected partner of v. In exact mode enumeration row
    k is configuration k and the Pauli flip is an involution on the rows, so
    v' is a row already evaluated and its pair is re-indexed onto the
    enumeration instead of evaluated again.
    """
    if obs.n_qubits != partition.n_sys:
        raise ValidationError(
            "observable must act on exactly the system qubits "
            f"(got {obs.n_qubits} letters for n_sys={partition.n_sys})")
    ev, w = batch.ev, batch.weights
    coeff, connected = pauli_action(obs, partition, ev.configs)
    if obs.is_diagonal:
        conn, rows, o_loc = ev, None, coeff
    elif batch.exact:
        conn, rows = ev, configs_to_indices(connected)
        o_loc = coeff * np.exp(ev.log_psi[rows] - ev.log_psi)
    else:
        conn, rows = evaluate(params, connected), None
        o_loc = coeff * np.exp(conn.log_psi - ev.log_psi)
    value = float(w @ o_loc.real)
    wo = w * o_loc
    return value, o_loc, [(ev, np.conj(wo) - 2.0 * value * w),
                          (conn, wo if rows is None else wo[rows])]


def estimate_observable(params: RbmParams, partition: Partition, obs: PauliString,
                        samples: SampleSet) -> EstimateResult:
    """<O> as the sample mean of the local estimator."""
    batch = _sampled_batch(params, samples)
    return batch.estimate(observable_terms(params, partition, obs, batch)[1].real)


# ---------------------------------------------------------------------------
# replica-trick entropies

class Replicas:
    """Evaluated replica streams u_0..u_{k-1} plus the permuted arrays
    (system spins of one stream, environment spins of another), each
    evaluated once on first use and shared by every replica order. An exact
    enumeration is a single |psi|^2-weighted stream."""

    def __init__(self, params: RbmParams, partition: Partition, streams: list[WeightedBatch]):
        self.params, self.partition, self.streams = params, partition, streams
        self._permuted = {}

    @property
    def exact(self) -> bool:
        return self.streams[0].exact

    def permuted(self, sys_of: int, env_of: int) -> Batch:
        key = (sys_of, env_of)
        if key not in self._permuted:
            ns = self.partition.n_sys
            configs = np.concatenate([self.streams[sys_of].ev.configs[:, :ns],
                                      self.streams[env_of].ev.configs[:, ns:]], axis=1)
            self._permuted[key] = evaluate(self.params, configs)
        return self._permuted[key]


def replicas(params: RbmParams, partition: Partition,
             streams: list[SampleSet] | None = None) -> Replicas:
    """Evaluate two or more replica sample streams of equal shape, or with
    streams None the enumeration of every configuration."""
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    if streams is None:
        return Replicas(params, partition, [WeightedBatch(*enumerate_model(params))])
    if len(streams) < 2:
        raise ValidationError("need at least 2 replica streams")
    if len({s.spins.shape for s in streams}) != 1:
        raise ValidationError("replica streams must have equal shapes")
    return Replicas(params, partition, [_sampled_batch(params, s) for s in streams])


def renyi_terms(reps: Replicas, n: int) -> tuple[float, np.ndarray | None, list]:
    """Tr rho_A^n over the replicas: (value, per-tuple terms, pairs), where
    contracting each (batch, c) pair and summing gives the gradient.

    Sampled: T = prod_k psi(w_k)/psi(u_k) over aligned tuples of the first n
    streams, value = mean Re T, and
    d value = Re mean T sum_k (F(u_k)* + F(w_k)) - value mean sum_k 2 Re F(u_k)
    with F = d log psi. Exact: with V the normalized amplitude matrix and
    rho = V V^dagger, d Tr rho^n = n Re sum_v 2 conj(rho^{n-1} V)[v] dV[v]
    minus n Tr rho^n d ln Z; the tuple enumeration (2^(n n_v) terms)
    collapses to these matrix products. Terms are None when exact.
    """
    if reps.exact:
        batch = reps.streams[0]
        v = normalized_amplitudes(batch.ev, batch.weights, reps.partition)
        rho = v @ v.conj().T
        ev = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        value = float((ev**n).sum() / ev.sum() ** n)
        g = np.conj(np.linalg.matrix_power(rho, n - 1) @ v) * v
        return value, None, [(batch.ev, 2.0 * n * (g.reshape(-1) - value * batch.weights))]
    if len(reps.streams) < n:
        raise ValidationError(f"need at least {n} replica streams")
    u = reps.streams[:n]
    w = [reps.permuted((k + 1) % n, k) for k in range(n)]
    terms = np.exp(sum(wk.log_psi - uk.ev.log_psi for uk, wk in zip(u, w)))
    weights = u[0].weights
    value = float(weights @ terms.real)
    wt = weights * terms
    c_u = np.conj(wt) - 2.0 * value * weights
    return value, terms, [(uk.ev, c_u) for uk in u] + [(wk, wt) for wk in w]


def estimate_swap(params: RbmParams, partition: Partition, streams) -> SwapResult:
    """S2 = -log2 <SWAP_A> from sample streams or their evaluated Replicas;
    a <SWAP_A> = Tr rho_A^2 estimate above 1 is clipped to 1, one <= 0 raises."""
    reps = streams if isinstance(streams, Replicas) else replicas(params, partition, streams)
    value, terms, _ = renyi_terms(reps, 2)
    if value <= 0.0:
        raise EstimationError(f"non-positive Tr(rho^2) estimate {value:.3e}; more samples needed")
    std_error = reps.streams[0].estimate(terms.real).std_error
    return SwapResult(s2_bits=-math.log2(min(value, 1.0)),
                      s2_std_error=std_error / (value * LN2))


# ---------------------------------------------------------------------------
# polynomial von Neumann entropy

VNE_FIT_FLOOR = 0.02
_VNE_FIT_POINTS = 2000


@lru_cache(maxsize=32)
def vne_coefficients(n_c: int) -> np.ndarray:
    """Coefficients alpha_1..alpha_{n_c} with x ln x ~ sum_m alpha_m x^m on
    [VNE_FIT_FLOOR, 1], constrained to vanish exactly at x = 1.

    Least-squares fit on Chebyshev-spaced nodes in the basis (x^m - x),
    m = 2..n_c, which builds the p(1) = 0 constraint in; alpha_1 is the
    negated sum of the rest. Deterministic, cached per cutoff.
    """
    if n_c < 2:
        raise ValidationError("polynomial cutoff must be >= 2")
    t = np.cos(np.linspace(0.0, np.pi, _VNE_FIT_POINTS))
    x = VNE_FIT_FLOOR + (1.0 - VNE_FIT_FLOOR) * (t + 1.0) / 2.0
    powers = np.vander(x, n_c + 1, increasing=True)[:, 1:]  # x^1..x^{n_c}
    basis = powers[:, 1:] - powers[:, [0]]
    sol, *_ = np.linalg.lstsq(basis, x * np.log(x), rcond=None)
    alpha = np.empty(n_c)
    alpha[1:] = sol
    alpha[0] = -sol.sum()
    alpha.setflags(write=False)
    return alpha


def vne_bits_from_raw_powers(tr_powers, n_c: int) -> float:
    """S1 ~ -(1/ln2) sum_m alpha_m (Tr rho^m - 1); no range validation, so
    noisy sampled trace powers are usable (the polynomial needs no log)."""
    tr_powers = np.asarray(tr_powers, dtype=float)
    if tr_powers.shape != (n_c - 1,):
        raise ValidationError(f"expected trace powers 2..{n_c} ({n_c - 1} values)")
    alpha = vne_coefficients(n_c)
    return float(-(alpha[1:] @ (tr_powers - 1.0)) / LN2)


def entropy_terms(reps: Replicas, n_c: int | None) -> tuple[float, list, bool]:
    """Entropy in bits, its gradient pairs and whether the S2 floor bound.

    n_c = None gives S2 = -log2 Tr rho_A^2, with d S2 = -d Tr rho_A^2 /
    (Tr rho_A^2 ln 2). No model state has Tr rho_A^2 below
    2^-min(n_sys, n_env), so exact values never reach the floor; a sampled
    estimate under half that bound is estimator noise and is floored to keep
    the log finite. Otherwise the polynomial von Neumann entropy at cutoff
    n_c, from trace powers 2..n_c (sampled mode reuses the first m of the n_c
    streams for power m); noisy power estimates are fed to the polynomial
    unvalidated.
    """
    if n_c is None:
        swap, _, pairs = renyi_terms(reps, 2)
        floor = 0.5 * 2.0 ** (-min(reps.partition.n_sys, reps.partition.n_env))
        floored = swap < floor
        swap = max(swap, floor)
        return -math.log2(swap), [(b, c / (-swap * LN2)) for b, c in pairs], floored
    alpha = vne_coefficients(n_c)
    powers = np.empty(n_c - 1)
    pairs = []
    for m in range(2, n_c + 1):
        powers[m - 2], _, pairs_m = renyi_terms(reps, m)
        pairs += [(b, -alpha[m - 1] / LN2 * c) for b, c in pairs_m]
    return vne_bits_from_raw_powers(powers, n_c), pairs, False

