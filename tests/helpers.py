"""Brute-force reference helpers shared by the test modules."""

import numpy as np

from rbmqst.estimators import observable_terms, renyi_terms, replicas
from rbmqst.rbm import RbmParams, enumerate_model, evaluate
from rbmqst.samplers import SampleSet
from rbmqst.spins import all_configs


def zero_params(n_v: int, m: int, beta: float = 1.0) -> RbmParams:
    return RbmParams(a=np.zeros(n_v, complex), b=np.zeros(m, complex),
                     w=np.zeros((n_v, m), complex), beta=beta)


def log_amplitude(params: RbmParams, config: np.ndarray) -> complex:
    return complex(evaluate(params, np.asarray(config)[None, :]).log_psi[0])


def sample_set(spins) -> SampleSet:
    """Hand-picked rows as a one-chain sample set."""
    spins = np.atleast_2d(np.asarray(spins, dtype=float))
    return SampleSet(spins, n_chains=1, chain_len=spins.shape[0])


def exact_observable(params: RbmParams, part, obs) -> float:
    """<O> by the exact sum over the model's enumeration, as training runs it."""
    return observable_terms(params, part, obs, replicas(params, part).streams[0])[0]


def exact_trace_power(params: RbmParams, part, n: int) -> float:
    """Tr rho_A^n by the exact sum over the model's enumeration."""
    return renyi_terms(replicas(params, part), n)[0]


def trace_power(rho: np.ndarray, n: int) -> float:
    """Tr rho^n from the eigenvalues, clipped at 0."""
    return float(np.sum(np.clip(np.linalg.eigvalsh(rho), 0.0, None) ** n))


def transition_matrix(params: RbmParams, proposal: str) -> np.ndarray:
    """Explicit MH transition matrix of a symmetric proposal on the full
    configuration space (detailed-balance checks; n_v <= 6)."""
    n_v = params.n_v
    assert n_v <= 6, "brute-force tool"
    k = 2**n_v
    configs = all_configs(n_v)
    pi = enumerate_model(params)[1]
    if proposal == "LocalFlip":
        ham = (configs[:, None, :] != configs[None, :, :]).sum(axis=2)
        q = np.where(ham == 1, 1.0 / n_v, 0.0)
    else:
        assert proposal == "Uniform", proposal
        q = np.full((k, k), 1.0 / k)
    flow = pi[:, None] * q
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.minimum(1.0, flow.T / flow)
    alpha[~np.isfinite(alpha)] = 1.0
    t = q * alpha
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=1))
    return t
