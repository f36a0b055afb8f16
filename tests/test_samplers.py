import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rbmqst.samplers as samplers
from helpers import transition_matrix, zero_params
from rbmqst.errors import ValidationError
from rbmqst.rbm import enumerate_model, evaluate, init_params, re_log2cosh
from rbmqst.samplers import (
    PROPOSALS,
    SamplerConfig,
    derive_seed,
    integrated_autocorr_time,
    mh_sample,
    sample_replicas,
    splitmix64,
    tv_distance,
)
from rbmqst.spins import configs_to_indices


# ---------------------------------------------------------------------------
# seed derivation

def test_splitmix64_reference_vector():
    # first output of the standard splitmix64 sequence seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_derive_seed_no_pairwise_collisions():
    seeds = {derive_seed(b, k) for b in range(8) for k in range(8)}
    assert len(seeds) == 64
    assert derive_seed(0, 1) != derive_seed(1, 0)
    assert derive_seed(3, 2) == derive_seed(3, 2)


# ---------------------------------------------------------------------------
# configs

def test_sampler_config_validation():
    for proposal in ("Metropolis", "SurrogateTrotter"):
        with pytest.raises(ValidationError, match="LocalFlip"):
            SamplerConfig(proposal=proposal)
    with pytest.raises(ValidationError):
        SamplerConfig(n_samples=0)
    with pytest.raises(ValidationError):
        SamplerConfig(burn_in=-1)


# ---------------------------------------------------------------------------
# autocorrelation and TV

def test_autocorr_time_iid_is_one():
    rng = np.random.default_rng(0)
    tau = integrated_autocorr_time(rng.normal(size=2**14))
    assert 0.9 < tau < 1.2


def test_autocorr_time_ar1():
    # AR(1) with phi = 0.9 has integrated time (1+phi)/(1-phi) = 19
    rng = np.random.default_rng(1)
    n = 2**17
    x = np.empty(n)
    x[0] = rng.normal()
    eps = rng.normal(size=n)
    for i in range(1, n):
        x[i] = 0.9 * x[i - 1] + eps[i]
    tau = integrated_autocorr_time(x)
    assert 14.0 < tau < 24.0


@pytest.mark.parametrize("shape", [(1, 8), (16, 64), (16, 256), (7, 33), (64, 4096)])
def test_autocovariance_rows_equal_one_fft_per_row(shape):
    def one_row(x):
        x = x - x.mean()
        nfft = 1 << (2 * x.size - 1).bit_length()
        f = np.fft.rfft(x, nfft)
        return np.fft.irfft(f * np.conj(f), nfft)[:x.size].real / x.size

    x = np.random.default_rng(shape[1]).normal(size=shape).cumsum(axis=1)
    assert np.array_equal(samplers._autocovariance(x), [one_row(row) for row in x])


def test_autocorr_time_floor():
    assert integrated_autocorr_time(np.array([1.0, -1.0, 1.0, -1.0] * 8)) >= 1.0
    assert integrated_autocorr_time(np.ones(4)) == 1.0  # too short -> 1


def test_tv_distance_values():
    assert_allclose(tv_distance([1.0, 0.0], [0.0, 1.0]), 1.0)
    assert_allclose(tv_distance([0.5, 0.5], [0.5, 0.5]), 0.0)
    assert_allclose(tv_distance([0.75, 0.25], [0.25, 0.75]), 0.5)


def test_exact_target_distribution_uniform_for_zero_params():
    p = zero_params(3, 2)
    assert_allclose(enumerate_model(p)[1], np.full(8, 1 / 8), atol=1e-14)


# ---------------------------------------------------------------------------
# MH sampling

def make_params(n_v=4, m=3, seed=2, std=0.35):
    return init_params(n_v, m, np.random.default_rng(seed), std=std)


def test_mh_sample_shapes_and_diagnostics():
    p = make_params()
    cfg = SamplerConfig(n_samples=100, burn_in=10, thinning=2, n_chains=8, seed=1)
    s = mh_sample(p, cfg)
    assert s.spins.shape == (s.n_chains * s.chain_len, 4)
    assert s.n_samples >= 100
    assert set(s.diagnostics) == {"proposal", "acceptance_rate", "autocorr_time",
                                  "n_samples", "seed"}
    assert 0.0 <= s.diagnostics["acceptance_rate"] <= 1.0
    assert s.diagnostics["seed"] == 1
    assert np.all(np.abs(s.spins) == 1.0)


def test_mh_sample_reproducible():
    p = make_params()
    cfg = SamplerConfig(n_samples=200, burn_in=20, n_chains=4, seed=7)
    s1 = mh_sample(p, cfg)
    s2 = mh_sample(p, cfg)
    assert_allclose(s1.spins, s2.spins)
    s3 = mh_sample(p, replace(cfg, seed=8))
    assert not np.array_equal(s1.spins, s3.spins)


@pytest.mark.parametrize("proposal", PROPOSALS)
def test_detailed_balance_brute_force(proposal):
    p = make_params(n_v=3, m=2, seed=4)
    t = transition_matrix(p, proposal)
    pi = enumerate_model(p)[1]
    assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    flow = pi[:, None] * t
    assert np.abs(flow - flow.T).max() < 1e-12
    assert np.abs(pi @ t - pi).max() < 1e-12


@pytest.mark.parametrize("proposal", PROPOSALS)
def test_empirical_distribution_converges(proposal):
    p = make_params(n_v=4, m=3, seed=5, std=0.3)
    cfg = SamplerConfig(n_samples=60000, burn_in=500, thinning=1, n_chains=16, seed=3,
                        proposal=proposal)
    s = mh_sample(p, cfg)
    counts = np.bincount(configs_to_indices(s.spins), minlength=16)
    assert tv_distance(counts / counts.sum(), enumerate_model(p)[1]) < 0.03


def test_sample_replicas_independent_streams():
    p = make_params()
    cfg = SamplerConfig(n_samples=128, burn_in=16, n_chains=4, seed=5)
    streams = sample_replicas(p, cfg, 3)
    assert len(streams) == 3
    assert streams[0].spins.shape == streams[1].spins.shape
    assert not np.array_equal(streams[0].spins, streams[1].spins)
    again = sample_replicas(p, cfg, 3)
    assert_allclose(streams[2].spins, again[2].spins)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("proposal", PROPOSALS)
def test_sample_replicas_equal_lone_streams(proposal, k):
    # one joint run of k chain groups gives each replica exactly the samples
    # and diagnostics of a lone run on that replica's seed, with drawn start
    # states and with given ones (each replica's own rows of them)
    p = make_params(n_v=5, m=3, seed=6, std=0.4)
    cfg = SamplerConfig(n_samples=64, burn_in=30, thinning=2, n_chains=4, seed=9,
                        proposal=proposal)
    given = 1.0 - 2.0 * np.random.default_rng(12).integers(0, 2, size=(k * 4, 5))
    for start in (None, given):
        streams = sample_replicas(p, cfg, k, start=start)
        assert len(streams) == k
        for r, stream in enumerate(streams):
            rows = None if start is None else start[r * 4:(r + 1) * 4]
            lone = mh_sample(p, replace(cfg, seed=derive_seed(cfg.seed, r)), start=rows)
            assert np.array_equal(stream.spins, lone.spins)
            assert (stream.n_chains, stream.chain_len) == (lone.n_chains, lone.chain_len)
            assert stream.diagnostics == lone.diagnostics


def test_start_states_continue_the_chains():
    # one LocalFlip step from the start states: each kept row is its chain's
    # start row or one flip away from it, and the caller's array is untouched
    p = make_params()
    start = 1.0 - 2.0 * np.random.default_rng(3).integers(0, 2, size=(16, 4))
    given = start.copy()
    s = mh_sample(p, SamplerConfig(n_samples=16, burn_in=0, n_chains=16, seed=1), start=start)
    assert np.array_equal(start, given)
    assert (s.chain_view()[:, 0] != start).sum(axis=1).max() <= 1


@pytest.mark.parametrize("start", [np.ones((4, 3)), np.ones((8, 4)), np.ones(16),
                                   np.where(np.eye(4, dtype=bool), 0.0, 1.0),
                                   np.full((4, 4), 2.0), np.full((4, 4), np.nan)],
                         ids=["narrow", "tall", "flat", "zero", "two", "nan"])
def test_malformed_start_is_refused_before_sampling(monkeypatch, start):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled or allocated before validating the start states")

    p = make_params()
    monkeypatch.setattr(samplers, "_mh_chains", no_sampling)
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    cfg = SamplerConfig(n_samples=32, burn_in=4, n_chains=4)
    with pytest.raises(ValidationError):
        mh_sample(p, cfg, start=start)
    with pytest.raises(ValidationError):  # k = 2 replicas need 2 * n_chains rows
        sample_replicas(p, cfg, 2, start=np.ones((4, 4)) if start.shape == (8, 4) else start)


def test_re_log2cosh_matches_complex_form():
    rng = np.random.default_rng(11)
    z = rng.uniform(-600.0, 600.0, 4000) + 1j * rng.uniform(-10.0, 10.0, 4000)
    z = np.concatenate([z, rng.normal(size=1000) + 1j * rng.normal(size=1000)])
    assert_allclose(re_log2cosh(z), np.log(2 * np.cosh(z)).real, rtol=1e-14, atol=1e-12)
    # no cancellation at or near the zeros of cosh, where the value is
    # log(4 (sinh^2 x + cos^2 y)) / 2
    points = [(0.0, np.pi / 2), (6.7e-10, -(np.pi / 2 - 1.2e-9))]
    for x, y in points + [(d, np.pi / 2 + d) for d in (1e-2, 1e-4, 1e-8)]:
        expected = 0.5 * math.log(4.0 * (math.sinh(x) ** 2 + math.cos(y) ** 2))
        assert_allclose(re_log2cosh(np.array([complex(x, y)]))[0], expected, rtol=1e-14)


def test_local_flip_tracked_log_psi_does_not_drift():
    p = init_params(20, 20, np.random.default_rng(4), std=0.3)
    cfg = SamplerConfig(n_samples=16 * 1000, burn_in=4000, n_chains=16, seed=2)  # 5,000 steps
    kept, kept_lp, accepted = samplers._mh_chains(p, cfg, (cfg.seed,))
    assert accepted.sum() > 0
    assert_allclose(kept_lp[:, -1], evaluate(p, kept[:, -1]).log_psi.real, rtol=0, atol=1e-9)


def test_sample_replicas_validation():
    p = make_params()
    with pytest.raises(ValidationError):
        sample_replicas(p, SamplerConfig(), 1)
