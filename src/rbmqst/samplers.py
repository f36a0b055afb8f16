"""Metropolis-Hastings sampling from |psi|^2.

Proposals (both symmetric):
- LocalFlip: flip one uniformly chosen spin.
- Uniform: resample the whole configuration uniformly.

All chains of a call run in one vectorized loop. They form groups of
equal size, each drawing from its own seeded generator in a fixed order, so
a group's samples do not depend on the other groups: sample_replicas runs
its k replica streams as one call of k groups, with one burn-in, and each
stream equals a lone mh_sample on that stream's seed. A call can continue
chains from given start states (start=) instead of drawing them, as
optimizer.train does from one epoch to the next. Every chain keeps
theta = beta*(b + W^T v), the per-unit Re log 2cosh theta (rbm.re_log2cosh,
the expression rbm.evaluate uses) and log|psi| of its state, so a LocalFlip
step costs O(m) per chain (the look-up tables of
Carleo & Troyer, Science 355, 602, 2017); Uniform proposals evaluate the
whole proposed configuration.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimationError, ValidationError
from .rbm import RbmParams, re_log2cosh

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
    """The Metropolis-Hastings loop over config.n_chains chains in
    len(seeds) equal groups; group r draws from default_rng(seeds[r]) in the
    order of a lone group (start, retries, then per step the proposal draws
    and the acceptance draw), so a group's chains do not depend on the
    others. Given start rows, a group starts from its own rows and draws
    only the retries of rows with non-finite log|psi|. Returns the kept
    spins (n_chains, chain_len, n_v), their log|psi| and each chain's
    accepted moves after burn-in."""
    n_v, beta = params.n_v, params.beta
    rngs = [np.random.default_rng(s) for s in seeds]
    group = config.n_chains // len(seeds)
    chain_len = math.ceil(config.n_samples / config.n_chains)
    proposal = config.proposal

    def draw(rng, count):
        return 1.0 - 2.0 * rng.integers(0, 2, size=(count, n_v)).astype(float)

    def begin(rng, rows):
        spins = draw(rng, group) if rows is None else rows.copy()
        for _ in range(100):
            theta, ell, lp = _chain_state(params, spins)
            bad = ~np.isfinite(lp)
            if not bad.any():
                return spins, theta, ell, lp
            spins[bad] = draw(rng, int(bad.sum()))
        raise EstimationError("could not find a start configuration with nonzero amplitude")

    with np.errstate(divide="ignore", invalid="ignore"):
        starts = [None] * len(rngs) if start is None else np.split(start, len(rngs))
        spins, theta, ell, lp = (np.concatenate(part) for part in zip(*map(begin, rngs, starts)))
        rows = np.arange(config.n_chains)
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
        kept = np.empty((config.n_chains, chain_len, n_v))
        kept_lp = np.empty((config.n_chains, chain_len))
        accepted = np.zeros(config.n_chains, dtype=np.int64)
        for k in range(chain_len):
            for _ in range(config.thinning):
                accepted += step()
            kept[:, k] = spins
            kept_lp[:, k] = lp
    return kept, kept_lp, accepted


def mh_sample(params: RbmParams, config: SamplerConfig, *,
              seeds=None, start=None) -> SampleSet:
    """Metropolis-Hastings chains targeting |psi|^2.

    With seeds = None the config.n_chains chains draw from config.seed, and
    the diagnostics record the proposal kind, acceptance rate, integrated
    autocorrelation time of the kept log|psi|^2 series, sample count and
    seed. With seeds = (s_0, .., s_{g-1}) the chains form g equal groups,
    group r sampling exactly as a lone call on seed s_r with
    n_chains / g chains would; the diagnostics then give the overall
    acceptance rate and sample count plus, under "streams", each group's
    own diagnostics.

    start, if given, is an (n_chains, n_v) array of +-1 states, one row per
    chain: the chains continue from it (config.burn_in steps still run)
    instead of drawing their start states, and group r from its own rows,
    so a lone call on group r's rows equals group r of a joint call.
    """
    lone = seeds is None
    seeds = (config.seed,) if lone else tuple(seeds)
    if not seeds or config.n_chains % len(seeds):
        raise ValidationError("n_chains must split into one equal group per seed")
    n_v = params.n_v
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (config.n_chains, n_v) or not np.all(np.abs(start) == 1.0):
            raise ValidationError(f"start must be a ({config.n_chains}, {n_v}) array of +-1 states")

    kept, kept_lp, accepted = _mh_chains(params, config, seeds, start)
    group = config.n_chains // len(seeds)
    chain_len = kept.shape[1]
    moves = group * chain_len * config.thinning
    streams = [{
        "proposal": config.proposal,
        "acceptance_rate": int(accepted[r * group:(r + 1) * group].sum()) / moves,
        "autocorr_time": integrated_autocorr_time(2.0 * kept_lp[r * group:(r + 1) * group]),
        "n_samples": group * chain_len,
        "seed": seed,
    } for r, seed in enumerate(seeds)]
    diagnostics = streams[0] if lone else {
        "proposal": config.proposal,
        "acceptance_rate": int(accepted.sum()) / (moves * len(seeds)),
        "n_samples": config.n_chains * chain_len,
        "streams": streams,
    }
    return SampleSet(spins=kept.reshape(-1, n_v), n_chains=config.n_chains,
                     chain_len=chain_len, diagnostics=diagnostics)


def sample_replicas(params: RbmParams, config: SamplerConfig, k: int, *,
                    start=None) -> list[SampleSet]:
    """k independent equally long sample streams from one joint
    Metropolis-Hastings run of k * n_chains chains; replica r samples as
    mh_sample on seed derive_seed(config.seed, r) would. start, if given,
    holds the k * n_chains chains' start states, replica r's in rows
    [r * n_chains, (r + 1) * n_chains) (the end states of k streams are
    np.concatenate([s.chain_view()[:, -1] for s in streams]))."""
    if k < 2:
        raise ValidationError("replica count must be >= 2")
    joint = mh_sample(params, replace(config, n_samples=k * config.n_samples,
                                      n_chains=k * config.n_chains),
                      seeds=[derive_seed(config.seed, r) for r in range(k)],
                      start=start)
    rows = joint.n_samples // k
    return [SampleSet(spins=joint.spins[r * rows:(r + 1) * rows], n_chains=config.n_chains,
                      chain_len=joint.chain_len, diagnostics=diag)
            for r, diag in enumerate(joint.diagnostics["streams"])]

