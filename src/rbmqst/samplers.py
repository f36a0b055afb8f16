"""Metropolis-Hastings sampling from |psi|^2.

Proposals (both symmetric):
- LocalFlip: flip one uniformly chosen spin.
- Uniform: resample the whole configuration uniformly.

All chains of a call run in one vectorized loop: mh_sample runs
config.n_chains chains on config.seed, sample_replicas k groups of
config.n_chains chains, one per derived seed, with one burn-in. Each group
draws from its own seeded generator in a fixed order, so its samples do not
depend on the other groups, and every returned SampleSet is one seed's
stream with the diagnostics of a lone mh_sample on that seed. A call can
continue chains from given start states (start=) instead of drawing them,
as optimizer.train does from one epoch to the next. Every chain keeps
theta = beta*(b + W^T v), the per-unit Re log 2cosh theta (rbm.re_log2cosh,
the expression rbm.evaluate uses) and log|psi| of its state, so a LocalFlip
step costs O(m) per chain (the look-up tables of
Carleo & Troyer, Science 355, 602, 2017); Uniform proposals evaluate the
whole proposed configuration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rbm import RbmParams, json_size, re_log2cosh

PROPOSALS = ("LocalFlip", "Uniform")

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
class SamplerConfig:
    """Metropolis-Hastings settings; mh_sample and sample_replicas read them
    all. optimizer.train reads burn_in, thinning, n_chains and proposal: it
    replaces n_samples by optimizer.samples_per_epoch and seed by a
    per-epoch seed derived from optimizer.seed, and runs burn_in steps on
    fresh chains but burn_in // 8 on chains continued from the previous
    epoch. The runner's final report draws fresh chains with the full
    burn_in, max(n_samples, 4096) samples and a seed derived from the
    run's seed."""

    n_samples: int = 1024
    burn_in: int = 256
    thinning: int = 1
    n_chains: int = 16
    seed: int = 0
    proposal: str = "LocalFlip"

    def __post_init__(self):
        for name in ("n_samples", "burn_in", "thinning", "n_chains", "seed"):
            json_size(getattr(self, name), name)
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
# autocorrelation

def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of x, all rows in one FFT pair."""
    x = x - x.mean(axis=-1, keepdims=True)
    n = x.shape[-1]
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=-1)
    # np.multiply, not *: * reuses a large temporary in place, which rounds differently
    return np.fft.irfft(np.multiply(f, np.conj(f)), nfft, axis=-1)[..., :n] / n


def integrated_autocorr_time(series: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with the self-consistent window
    (smallest M with M >= c*tau(M)); floored at 1. Accepts a single series
    or a (n_chains, len) stack whose autocovariances are averaged."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[1] < 8:
        return 1.0
    acov = _autocovariance(series).mean(axis=0)
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

def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def _chain_state(params: RbmParams, spins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, the per-unit Re log 2cosh theta and log|psi| of rows of spins."""
    theta = params.beta * (params.b + spins @ params.w)
    ell = re_log2cosh(theta)
    return theta, ell, params.beta * (spins @ params.a.real) + ell.sum(axis=1)


def _mh_chains(params: RbmParams, config: SamplerConfig, seeds: tuple,
               start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Metropolis-Hastings loop over config.n_chains chains per seed;
    the group of seed r draws from default_rng(seeds[r]) in the order of a
    lone group (start, then per step the proposal draws and the acceptance
    draw), so a group's chains do not depend on the others. Given start
    rows, a group starts from its own rows and draws no start. Every start
    state is valid: log|psi| is finite for every +-1 row
    (rbm.re_log2cosh is finite for finite theta). Returns the kept spins
    (len(seeds) * n_chains, chain_len, n_v), their log|psi| and each
    chain's accepted moves after burn-in."""
    n_v, beta = params.n_v, params.beta
    rngs = [np.random.default_rng(s) for s in seeds]
    group = config.n_chains
    n_chains = group * len(seeds)
    chain_len = math.ceil(config.n_samples / group)
    proposal = config.proposal

    def draw(rng, count):
        return 1.0 - 2.0 * rng.integers(0, 2, size=(count, n_v)).astype(float)

    with np.errstate(divide="ignore", invalid="ignore"):
        starts = [draw(rng, group) for rng in rngs] if start is None else np.split(start, len(rngs))
        # per group, as the Uniform proposals below
        spins, theta, ell, lp = (np.concatenate(part) for part in
                                 zip(*[(x, *_chain_state(params, x)) for x in starts]))
        rows = np.arange(n_chains)
        if proposal == "LocalFlip":
            w2 = 2.0 * beta * params.w
            a2 = 2.0 * beta * params.a.real

        def step():
            if proposal == "LocalFlip":
                sites = np.concatenate([rng.integers(0, n_v, size=group) for rng in rngs])
                s = spins[rows, sites]
                theta_p = theta - s[:, None] * w2[sites]
                ell_p = re_log2cosh(theta_p)
                delta = (ell_p - ell).sum(axis=1) - s * a2[sites]
                log_alpha = 2.0 * delta
            else:
                # evaluated per group: a matmul's rounding can depend on its
                # row count, and a group must not depend on the others
                props = [draw(rng, group) for rng in rngs]
                prop = np.concatenate(props)
                lp_p = np.concatenate([_chain_state(params, x)[2] for x in props])
                log_alpha = 2.0 * (lp_p - lp)
            # start states are finite and a -inf or NaN proposal is never
            # accepted, so log|psi| stays finite along every chain
            accept = np.log(np.concatenate([rng.random(group) for rng in rngs])) < log_alpha
            if proposal == "LocalFlip":
                spins[rows[accept], sites[accept]] *= -1.0
                np.copyto(theta, theta_p, where=accept[:, None])
                np.copyto(ell, ell_p, where=accept[:, None])
                np.add(lp, delta, out=lp, where=accept)
            else:
                np.copyto(spins, prop, where=accept[:, None])
                np.copyto(lp, lp_p, where=accept)
            return accept

        for _ in range(config.burn_in):
            step()
        kept = np.empty((n_chains, chain_len, n_v))
        kept_lp = np.empty((n_chains, chain_len))
        accepted = np.zeros(n_chains, dtype=np.int64)
        for k in range(chain_len):
            for _ in range(config.thinning):
                accepted += step()
            kept[:, k] = spins
            kept_lp[:, k] = lp
    return kept, kept_lp, accepted


def _sample(params: RbmParams, config: SamplerConfig, seeds: list, start) -> list[SampleSet]:
    """One SampleSet per seed, with the diagnostics of a lone call, from one
    _mh_chains run; start, if given, holds seed r's config.n_chains start
    states in rows [r * n_chains, (r + 1) * n_chains)."""
    n_v, group = params.n_v, config.n_chains
    if start is not None:
        start = np.asarray(start, dtype=float)
        shape = (len(seeds) * group, n_v)
        if start.shape != shape or not np.all(np.abs(start) == 1.0):
            raise ValidationError(f"start must be a {shape} array of +-1 states")
    kept, kept_lp, accepted = (np.split(x, len(seeds)) for x in
                               _mh_chains(params, config, seeds, start))
    chain_len = kept[0].shape[1]
    moves = group * chain_len * config.thinning
    return [SampleSet(spins=x.reshape(-1, n_v), n_chains=group, chain_len=chain_len,
                      diagnostics={"proposal": config.proposal,
                                   "acceptance_rate": int(acc.sum()) / moves,
                                   "autocorr_time": integrated_autocorr_time(2.0 * lp),
                                   "n_samples": group * chain_len, "seed": seed})
            for seed, x, lp, acc in zip(seeds, kept, kept_lp, accepted)]


def mh_sample(params: RbmParams, config: SamplerConfig, *, start=None) -> SampleSet:
    """config.n_chains Metropolis-Hastings chains targeting |psi|^2, drawing
    from config.seed. The diagnostics record the proposal kind, acceptance
    rate, integrated autocorrelation time of the kept log|psi|^2 series,
    sample count and seed.

    start, if given, is an (n_chains, n_v) array of +-1 states, one row per
    chain: the chains continue from it (config.burn_in steps still run)
    instead of drawing their start states.
    """
    return _sample(params, config, [config.seed], start)[0]


def sample_replicas(params: RbmParams, config: SamplerConfig, k: int, *,
                    start=None) -> list[SampleSet]:
    """k independent equally long sample streams of config.n_chains chains
    each, run in one loop with one burn-in; replica r is exactly
    mh_sample on seed derive_seed(config.seed, r), samples and diagnostics
    alike. start, if given, holds the k * n_chains chains' start states,
    replica r's in rows [r * n_chains, (r + 1) * n_chains) (the end states
    of k streams are np.concatenate([s.chain_view()[:, -1] for s in streams]))."""
    if k < 2:
        raise ValidationError("replica count must be >= 2")
    return _sample(params, config, [derive_seed(config.seed, r) for r in range(k)], start)
