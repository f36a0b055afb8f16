"""Metropolis-Hastings sampling from |psi|^2 with pluggable proposals.

Proposals:
- LocalFlip: flip one uniformly chosen spin (symmetric).
- Uniform: resample the whole configuration uniformly (symmetric).
- SurrogateTrotter: classically simulated Trotterized evolution of a
  surrogate Ising Hamiltonian fitted to the current RBM distribution;
  the proposal matrix q(v'|v) = |<v'|U|v>|^2 is precomputed densely and
  the full asymmetric MH ratio is applied.

Chains are vectorized: one RNG drives all chains jointly, so results are
deterministic for a fixed config regardless of thread count.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DenseCapError, EstimationError, ValidationError
from .oracle import DENSE_CAP
from .rbm import RbmParams, _log2cosh, log_amplitudes
from .spins import all_configs, configs_to_indices

PROPOSALS = ("LocalFlip", "Uniform", "SurrogateTrotter")

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive replica/epoch seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, k: int) -> int:
    """Seed of the k-th derived stream: element k of the splitmix64 sequence
    started at `base` (additive, so distinct (base, k) pairs do not collide
    the way an XOR mix would for neighbouring bases)."""
    return splitmix64((int(base) + int(k) * 0x9E3779B97F4A7C15) & _MASK64)


@dataclass(frozen=True)
class SurrogateParams:
    """Ising surrogate H_sur = sum_i l_i s_i + sum_{i<j} J_ij s_i s_j plus the
    Trotterized-evolution knobs (tau, gamma, n_trot)."""

    l: np.ndarray
    j: np.ndarray
    tau: float = 2.0
    gamma: float = 0.6
    n_trot: int = 8
    residual: float = 0.0
    ridge_fallback: bool = False

    def __post_init__(self):
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float))
        object.__setattr__(self, "j", np.asarray(self.j, dtype=float))
        n = self.l.size
        if self.j.shape != (n, n):
            raise ValidationError("J must be n_v x n_v")
        if np.max(np.abs(self.j - self.j.T), initial=0.0) > 1e-12:
            raise ValidationError("J must be symmetric")
        if np.max(np.abs(np.diagonal(self.j)), initial=0.0) != 0.0:
            raise ValidationError("J must have zero diagonal")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1]")
        if self.tau <= 0 or self.n_trot < 1:
            raise ValidationError("tau must be positive and n_trot >= 1")


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int = 1024
    burn_in: int = 256
    thinning: int = 1
    n_chains: int = 16
    seed: int = 0
    proposal: str = "LocalFlip"

    def __post_init__(self):
        if self.n_samples < 1 or self.thinning < 1 or self.n_chains < 1:
            raise ValidationError("counts must be >= 1")
        if self.burn_in < 0:
            raise ValidationError("burn_in must be >= 0")
        if self.proposal not in PROPOSALS:
            raise ValidationError(f"proposal must be one of {PROPOSALS}")


@dataclass
class SampleSet:
    """Kept samples, chain-major: chain c occupies rows [c*chain_len, (c+1)*chain_len)."""

    spins: np.ndarray
    n_chains: int
    chain_len: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.spins.shape[0]

    def chain_view(self) -> np.ndarray:
        return self.spins.reshape(self.n_chains, self.chain_len, -1)


# ---------------------------------------------------------------------------
# surrogate fit and Trotterized proposal matrix

def fit_surrogate(params: RbmParams, fit_batch: np.ndarray, tau: float = 2.0,
                  gamma: float = 0.6, n_trot: int = 8) -> SurrogateParams:
    """Least-squares fit of log|psi|^2 by const + l.s + sum_{i<j} J_ij s_i s_j
    over the batch. Falls back to a ridge-regularized solve (flagged) when
    the feature matrix is rank deficient."""
    batch = np.atleast_2d(np.asarray(fit_batch, dtype=float))
    if batch.size == 0:
        raise ValidationError("fit batch must be nonempty")
    n_v = params.n_v
    if batch.shape[1] != n_v:
        raise ValidationError("fit batch width does not match n_v")
    iu, ju = np.triu_indices(n_v, k=1)
    x = np.concatenate(
        [np.ones((batch.shape[0], 1)), batch, batch[:, iu] * batch[:, ju]], axis=1)
    y = 2.0 * log_amplitudes(params, batch).real
    sol, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    ridge = rank < x.shape[1]
    if ridge:
        gram = x.T @ x
        lam = 1e-8 * max(np.trace(gram) / x.shape[1], 1.0)
        sol = np.linalg.solve(gram + lam * np.eye(x.shape[1]), x.T @ y)
    resid = float(np.sqrt(np.mean((x @ sol - y) ** 2)))
    l = sol[1:1 + n_v]
    j = np.zeros((n_v, n_v))
    j[iu, ju] = sol[1 + n_v:]
    j = j + j.T
    return SurrogateParams(l=l, j=j, tau=tau, gamma=gamma, n_trot=n_trot,
                           residual=resid, ridge_fallback=ridge)


def ising_energies(surrogate: SurrogateParams, configs: np.ndarray) -> np.ndarray:
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    quad = 0.5 * np.einsum("ki,ij,kj->k", configs, surrogate.j, configs)
    return configs @ surrogate.l + quad


def trotter_proposal_matrix(surrogate: SurrogateParams, cap: int = DENSE_CAP) -> np.ndarray:
    """Row-stochastic q(v'|v) = |<v'|U|v>|^2 for U = [exp(-i gamma H_sur dt)
    exp(-i (1-gamma) H_x dt)]^n_trot with dt = tau/n_trot, H_x = sum_i X_i."""
    n_v = surrogate.l.size
    if n_v > cap:
        raise DenseCapError(f"{n_v} visible units exceeds dense cap {cap}")
    dt = surrogate.tau / surrogate.n_trot
    phases = np.exp(-1j * surrogate.gamma * dt * ising_energies(surrogate, all_configs(n_v)))
    phi = (1.0 - surrogate.gamma) * dt
    rx = np.array([[np.cos(phi), -1j * np.sin(phi)],
                   [-1j * np.sin(phi), np.cos(phi)]])
    mixer = np.array([[1.0 + 0j]])
    for _ in range(n_v):
        mixer = np.kron(mixer, rx)
    step = phases[:, None] * mixer
    u = np.linalg.matrix_power(step, surrogate.n_trot)
    return np.abs(u.T) ** 2


# ---------------------------------------------------------------------------
# autocorrelation

def _autocovariance(x: np.ndarray) -> np.ndarray:
    x = x - x.mean()
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    return acov / n


def integrated_autocorr_time(series: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with the self-consistent window
    (smallest M with M >= c*tau(M)); floored at 1. Accepts a single series
    or a (n_chains, len) stack whose autocovariances are averaged."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[1] < 8:
        return 1.0
    acov = np.mean([_autocovariance(row) for row in series], axis=0)
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    taus = 1.0 + 2.0 * np.cumsum(rho[1:])
    m = np.arange(1, taus.size + 1)
    window = m >= c * taus
    idx = int(np.argmax(window)) if window.any() else taus.size - 1
    return float(max(taus[idx], 1.0))


# ---------------------------------------------------------------------------
# Metropolis-Hastings

def exact_target_distribution(params: RbmParams, cap: int = DENSE_CAP) -> np.ndarray:
    """Normalized |psi|^2 over all configurations (brute force)."""
    if params.n_v > cap:
        raise DenseCapError(f"{params.n_v} visible units exceeds dense cap {cap}")
    ln = 2.0 * log_amplitudes(params, all_configs(params.n_v)).real
    p = np.exp(ln - ln.max())
    return p / p.sum()


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def _logpsi_re(params: RbmParams, configs: np.ndarray) -> np.ndarray:
    # Raw real parts; genuine zero amplitudes show up as -inf and are handled
    # by the acceptance step rather than raising.
    configs = np.atleast_2d(configs)
    theta = params.beta * (params.b + configs @ params.w)
    with np.errstate(divide="ignore"):
        l2c = _log2cosh(theta).real
    return params.beta * (configs @ params.a).real + l2c.sum(axis=1)


def mh_sample(params: RbmParams, config: SamplerConfig,
              surrogate: SurrogateParams | None = None) -> SampleSet:
    """Metropolis-Hastings chains targeting |psi|^2.

    Returns a SampleSet whose diagnostics record the proposal kind,
    acceptance rate, integrated autocorrelation time of the kept
    log|psi|^2 series, sample count, and seed.
    """
    if (config.proposal == "SurrogateTrotter") != (surrogate is not None):
        raise ValidationError("surrogate must be given exactly when proposal is SurrogateTrotter")
    n_v = params.n_v
    rng = np.random.default_rng(config.seed)
    n_chains = config.n_chains
    chain_len = math.ceil(config.n_samples / n_chains)

    q = q_cum = configs_table = idx = None
    if surrogate is not None:
        if surrogate.l.size != n_v:
            raise ValidationError("surrogate size does not match n_v")
        q = trotter_proposal_matrix(surrogate)
        q_cum = np.cumsum(q, axis=1)
        configs_table = all_configs(n_v)

    cur = 1.0 - 2.0 * rng.integers(0, 2, size=(n_chains, n_v)).astype(float)
    cur_lp = _logpsi_re(params, cur)
    for _ in range(100):
        bad = ~np.isfinite(cur_lp)
        if not bad.any():
            break
        cur[bad] = 1.0 - 2.0 * rng.integers(0, 2, size=(int(bad.sum()), n_v)).astype(float)
        cur_lp = _logpsi_re(params, cur)
    else:
        raise EstimationError("could not find a start configuration with nonzero amplitude")
    if surrogate is not None:
        idx = configs_to_indices(cur)

    kept = np.empty((n_chains, chain_len, n_v))
    kept_lp = np.empty((n_chains, chain_len))
    accepted = 0
    proposed = 0

    def do_step():
        nonlocal cur, cur_lp, idx, accepted, proposed
        if config.proposal == "LocalFlip":
            site = rng.integers(0, n_v, size=n_chains)
            prop = cur.copy()
            prop[np.arange(n_chains), site] *= -1.0
            log_q_corr = 0.0
        elif config.proposal == "Uniform":
            prop = 1.0 - 2.0 * rng.integers(0, 2, size=(n_chains, n_v)).astype(float)
            log_q_corr = 0.0
        else:
            u = rng.random(n_chains)
            prop_idx = np.minimum((q_cum[idx] <= u[:, None]).sum(axis=1), 2**n_v - 1)
            prop = configs_table[prop_idx]
            with np.errstate(divide="ignore"):
                log_q_corr = np.log(q[prop_idx, idx]) - np.log(q[idx, prop_idx])
        prop_lp = _logpsi_re(params, prop)
        with np.errstate(invalid="ignore"):
            log_alpha = 2.0 * (prop_lp - cur_lp) + log_q_corr
        # escaping a zero-amplitude state is always accepted
        log_alpha = np.where(np.isneginf(cur_lp) & np.isfinite(prop_lp), np.inf, log_alpha)
        accept = np.log(rng.random(n_chains)) < log_alpha
        cur = np.where(accept[:, None], prop, cur)
        cur_lp = np.where(accept, prop_lp, cur_lp)
        if surrogate is not None:
            idx = np.where(accept, prop_idx, idx)
        accepted += int(accept.sum())
        proposed += n_chains

    for _ in range(config.burn_in):
        do_step()
    accepted = proposed = 0
    for k in range(chain_len):
        for _ in range(config.thinning):
            do_step()
        kept[:, k, :] = cur
        kept_lp[:, k] = cur_lp

    diagnostics = {
        "proposal": config.proposal,
        "acceptance_rate": accepted / max(proposed, 1),
        "autocorr_time": integrated_autocorr_time(2.0 * kept_lp),
        "tv_distance_if_exact_available": None,
        "n_samples": n_chains * chain_len,
        "seed": config.seed,
    }
    return SampleSet(spins=kept.reshape(-1, n_v), n_chains=n_chains,
                     chain_len=chain_len, diagnostics=diagnostics)


def sample_replicas(params: RbmParams, config: SamplerConfig, k: int,
                    surrogate: SurrogateParams | None = None) -> list[SampleSet]:
    """k independent equally long sample streams; replica r runs on seed
    derive_seed(config.seed, r)."""
    if k < 2:
        raise ValidationError("replica count must be >= 2")
    return [mh_sample(params, replace(config, seed=derive_seed(config.seed, r)), surrogate)
            for r in range(k)]


def transition_matrix(params: RbmParams, proposal: str,
                      surrogate: SurrogateParams | None = None) -> np.ndarray:
    """Explicit MH transition matrix on the full configuration space
    (brute-force detailed-balance checks; small n_v only)."""
    n_v = params.n_v
    if n_v > 6:
        raise DenseCapError("transition_matrix is a brute-force tool; n_v <= 6 only")
    k = 2**n_v
    configs = all_configs(n_v)
    pi = exact_target_distribution(params)
    if proposal == "LocalFlip":
        ham = (configs[:, None, :] != configs[None, :, :]).sum(axis=2)
        q = np.where(ham == 1, 1.0 / n_v, 0.0)
    elif proposal == "Uniform":
        q = np.full((k, k), 1.0 / k)
    elif proposal == "SurrogateTrotter":
        if surrogate is None:
            raise ValidationError("surrogate required")
        q = trotter_proposal_matrix(surrogate)
    else:
        raise ValidationError(f"proposal must be one of {PROPOSALS}")
    flow = pi[:, None] * q
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.minimum(1.0, flow.T / flow)
    alpha[~np.isfinite(alpha)] = 1.0
    t = q * alpha
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=1))
    return t
