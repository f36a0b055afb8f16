"""Sampling estimators for observables and Renyi/von Neumann entropies.

Every estimator has two modes: `sampled` (fed by samplers.mh_sample /
sample_replicas output) and `exact_sum` (brute-force enumeration over all
visible configurations, used as the oracle-comparable mode at small sizes).
Both are a WeightedBatch: the evaluated configurations with weights 1/N
(samples) or normalized |psi|^2 (enumeration), averaged by one code path.

Pauli local estimator: a Pauli string connects each configuration v to
exactly one partner v' (flip the X/Y support on the system spins); the
matrix element under spin +1 <-> bit 0 is

    <v|P|v'>  =  prod_{Z sites} v_i  *  prod_{Y sites} (-i v_i)

so O_loc(v) = <v|P|v'> * psi(v')/psi(v).

Entropies use the replica trick: Tr rho_A^n is the mean over n independent
sample streams of prod_k psi(w_k)/psi(u_k), where w_k carries the A-region
(system) spins of stream k+1 (cyclic) and the environment spins of stream k.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DenseCapError, EstimationError, ValidationError
from .oracle import DENSE_CAP, PauliString
from .rbm import Batch, Partition, RbmParams, evaluate
from .samplers import SampleSet, integrated_autocorr_time
from .spins import all_configs

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EstimateResult:
    value: float
    std_error: float
    n_samples: int
    mode: str  # "sampled" | "exact_sum"


@dataclass(frozen=True)
class SwapResult:
    """<SWAP_A> estimate plus the derived second Renyi entropy in bits."""

    swap: EstimateResult
    s2_bits: float
    s2_std_error: float
    imag_mean: float
    clipped: bool


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
    (n_chains = 0: exact, no error bar)."""

    ev: Batch
    weights: np.ndarray
    n_chains: int = 0
    chain_len: int = 0

    @property
    def exact(self) -> bool:
        return self.n_chains == 0

    def estimate(self, series: np.ndarray) -> EstimateResult:
        """Weighted mean of a real per-configuration series."""
        se = 0.0 if self.exact else _series_error(series, self.n_chains, self.chain_len)
        return EstimateResult(value=float(self.weights @ series), std_error=se,
                              n_samples=series.size,
                              mode="exact_sum" if self.exact else "sampled")


def _sampled_batch(params: RbmParams, samples) -> WeightedBatch:
    if isinstance(samples, SampleSet):
        spins, n_chains, chain_len = samples.spins, samples.n_chains, samples.chain_len
    else:
        spins = np.atleast_2d(np.asarray(samples, dtype=float))
        if spins.size == 0:
            raise ValidationError("empty sample set")
        n_chains, chain_len = 1, spins.shape[0]
    return WeightedBatch(evaluate(params, spins), np.full(spins.shape[0], 1.0 / spins.shape[0]),
                         n_chains, chain_len)


def _exact_batch(params: RbmParams, partition: Partition, cap: int = DENSE_CAP) -> WeightedBatch:
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    if partition.n_v > cap:
        raise DenseCapError(f"exact_sum over {partition.n_v} spins exceeds dense cap {cap}")
    ev = evaluate(params, all_configs(partition.n_v))
    p = np.exp(2.0 * (ev.log_psi.real - ev.log_psi.real.max()))
    return WeightedBatch(ev, p / p.sum())


def weighted_batch(params: RbmParams, partition: Partition, samples=None,
                   exact_sum: bool = False, cap: int = DENSE_CAP) -> WeightedBatch:
    """The batch an estimate averages over; a WeightedBatch passes through."""
    if isinstance(samples, WeightedBatch):
        return samples
    if exact_sum:
        return _exact_batch(params, partition, cap)
    if samples is None:
        raise ValidationError("samples required unless exact_sum")
    return _sampled_batch(params, samples)


# ---------------------------------------------------------------------------
# observables

def _check_obs(partition: Partition, obs: PauliString) -> None:
    if obs.n_qubits != partition.n_sys:
        raise ValidationError(
            "observable must act on exactly the system qubits "
            f"(got {obs.n_qubits} letters for n_sys={partition.n_sys})")


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
                     batch: WeightedBatch) -> tuple[EstimateResult, np.ndarray, Batch | None]:
    """<O> over a weighted batch, the local estimators
    O_loc(v) = <v|O|v'> psi(v')/psi(v), and the evaluated connected
    configurations v' (None for a diagonal O, whose v' = v)."""
    coeff, connected = pauli_action(obs, partition, batch.ev.configs)
    conn = None
    o_loc = coeff
    if not obs.is_diagonal:
        conn = evaluate(params, connected)
        o_loc = coeff * np.exp(conn.log_psi - batch.ev.log_psi)
    return batch.estimate(o_loc.real), o_loc, conn


def estimate_observable(params: RbmParams, partition: Partition, obs: PauliString,
                        samples=None, exact_sum: bool = False,
                        cap: int = DENSE_CAP) -> EstimateResult:
    """<O> as the |psi|^2-weighted mean of the local estimator."""
    _check_obs(partition, obs)
    batch = weighted_batch(params, partition, samples, exact_sum, cap)
    return observable_terms(params, partition, obs, batch)[0]


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


def replicas(params: RbmParams, partition: Partition, replica_samples, n: int,
             exact_sum: bool = False) -> Replicas:
    """Evaluate n replica streams (or the enumeration); Replicas pass through."""
    if n < 2:
        raise ValidationError("replica order must be >= 2")
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    if isinstance(replica_samples, Replicas):
        if not replica_samples.exact and len(replica_samples.streams) < n:
            raise ValidationError(f"need at least {n} replica streams")
        return replica_samples
    if exact_sum:
        return Replicas(params, partition, [_exact_batch(params, partition)])
    if replica_samples is None or len(replica_samples) != n:
        raise ValidationError(f"need exactly {n} replica streams")
    streams = [_sampled_batch(params, s) for s in replica_samples]
    if len({s.ev.configs.shape for s in streams}) != 1:
        raise ValidationError("replica streams must have equal shapes")
    return Replicas(params, partition, streams)


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
        ns, ne = reps.partition.n_sys, reps.partition.n_env
        v = (np.sqrt(batch.weights) * np.exp(1j * batch.ev.log_psi.imag)).reshape(2**ns, 2**ne)
        rho = v @ v.conj().T
        ev = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        value = float((ev**n).sum() / ev.sum() ** n)
        g = np.conj(np.linalg.matrix_power(rho, n - 1) @ v) * v
        return value, None, [(batch.ev, 2.0 * n * (g.reshape(-1) - value * batch.weights))]
    u = reps.streams[:n]
    w = [reps.permuted((k + 1) % n, k) for k in range(n)]
    terms = np.exp(sum(wk.log_psi - uk.ev.log_psi for uk, wk in zip(u, w)))
    weights = u[0].weights
    value = float(weights @ terms.real)
    wt = weights * terms
    c_u = np.conj(wt) - 2.0 * value * weights
    return value, terms, [(uk.ev, c_u) for uk in u] + [(wk, wt) for wk in w]


def _renyi_estimate(params: RbmParams, partition: Partition, n: int,
                    replica_samples, exact_sum: bool) -> tuple[EstimateResult, float]:
    """Shared path for estimate_renyi_n / estimate_swap; also returns the
    imaginary part of the term mean (diagnostic)."""
    reps = replicas(params, partition, replica_samples, n, exact_sum)
    value, terms, _ = renyi_terms(reps, n)
    if terms is None:
        est = EstimateResult(value=value, std_error=0.0,
                             n_samples=2**partition.n_v, mode="exact_sum")
        return est, 0.0
    if value <= 0.0:
        raise EstimationError(
            f"non-positive Tr(rho^{n}) estimate {value:.3e}; more samples needed")
    est = reps.streams[0].estimate(terms.real)
    return est, float(terms.imag.mean())


def estimate_renyi_n(params: RbmParams, partition: Partition, n: int,
                     replica_samples=None, exact_sum: bool = False) -> EstimateResult:
    """Tr(rho_A^n) with the A region = system qubits."""
    return _renyi_estimate(params, partition, n, replica_samples, exact_sum)[0]


def estimate_swap(params: RbmParams, partition: Partition,
                  replica_samples=None, exact_sum: bool = False) -> SwapResult:
    """<SWAP_A> = Tr(rho_A^2) from paired streams, plus S2 = -log2(value).

    The imaginary part of the term mean is reported as a diagnostic; values
    above 1 are clipped to 1 (flagged) before the log.
    """
    est, imag_mean = _renyi_estimate(params, partition, 2, replica_samples, exact_sum)
    clipped = est.value > 1.0
    swap_val = min(est.value, 1.0)
    s2 = -math.log2(swap_val)
    return SwapResult(swap=est, s2_bits=s2,
                      s2_std_error=est.std_error / (est.value * LN2),
                      imag_mean=imag_mean, clipped=clipped)


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


def vne_from_powers(tr_powers, n_c: int) -> float:
    """Polynomial von Neumann entropy (bits) from exact-range trace powers
    Tr rho^2 .. Tr rho^{n_c}. A pure state (all powers 1) gives exactly 0."""
    arr = np.asarray(tr_powers, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValidationError("trace powers must lie in (0, 1]")
    return vne_bits_from_raw_powers(arr, n_c)


def required_samples(variance: float, epsilon: float) -> int:
    """N_s = ceil(Var/eps^2), at least 1."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if variance < 0:
        raise ValidationError("variance must be nonnegative")
    return max(1, math.ceil(variance / epsilon**2))
