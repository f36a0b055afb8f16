import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import exact_observable, exact_trace_power, log_amplitude, sample_set, trace_power
from rbmqst.errors import EstimationError, ValidationError
from rbmqst import spins
from rbmqst.estimators import (
    _sampled_batch,
    entropy_terms,
    estimate_observable,
    estimate_swap,
    observable_terms,
    pauli_action,
    renyi_terms,
    replicas,
    vne_bits_from_raw_powers,
    vne_coefficients,
)
from rbmqst.oracle import (
    PauliString,
    entropy_exact,
    pauli_expectation_exact,
    random_pauli_strings,
)
from rbmqst.rbm import (
    Partition,
    RbmParams,
    exact_density_matrix,
    init_params,
)
from rbmqst.samplers import SamplerConfig, mh_sample, sample_replicas
from rbmqst.spins import all_configs, configs_to_indices


def make(n_sys=2, n_env=1, m=2, seed=0, std=0.3):
    part = Partition(n_sys, n_env)
    return init_params(part.n_v, m, np.random.default_rng(seed), std=std), part


# ---------------------------------------------------------------------------
# local estimators

@pytest.mark.parametrize("letters", ["XY", "ZX", "YY", "IZ", "XI"])
def test_pauli_action_matches_dense_matrix_elements(letters):
    part = Partition(2, 1)
    obs = PauliString(letters)
    configs = all_configs(part.n_v)
    coeff, connected = pauli_action(obs, part, configs)
    dense = np.kron(obs.matrix(), np.eye(2))
    rows = configs_to_indices(configs)
    cols = configs_to_indices(connected)
    assert_allclose(coeff, dense[rows, cols], atol=1e-14)
    # every non-connected element of those rows is zero for a Pauli string
    mask = np.zeros_like(dense, dtype=bool)
    mask[rows, cols] = True
    assert np.abs(dense[~mask]).max() == 0.0


def test_pauli_action_env_untouched():
    part = Partition(2, 2)
    _, connected = pauli_action(PauliString("XX"), part, all_configs(4))
    assert_allclose(connected[:, 2:], all_configs(4)[:, 2:])


def local_estimators(params, part, obs, configs):
    return observable_terms(params, part, obs, _sampled_batch(params, sample_set(configs)))[1]


def test_local_estimator_diagonal_is_spin_product():
    params, part = make(3, 1, seed=5)
    v = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])
    assert_allclose(local_estimators(params, part, PauliString("ZIZ"), v), [-1.0, -1.0])
    assert_allclose(local_estimators(params, part, PauliString("IZZ"), v), [1.0, -1.0])


def test_local_estimator_offdiagonal_uses_amplitude_ratio():
    params, part = make(2, 1, seed=1)
    v = np.array([1.0, 1.0, -1.0])
    conn = np.array([-1.0, 1.0, -1.0])
    want = np.exp(log_amplitude(params, conn) - log_amplitude(params, v))
    got = local_estimators(params, part, PauliString("XI"), v)
    assert_allclose(got, [want], rtol=1e-12)
    # the sampled value of a one-row batch is the real part of that estimator
    est = estimate_observable(params, part, PauliString("XI"), sample_set(v))
    assert est.value == pytest.approx(want.real, rel=1e-12)


def test_obs_width_mismatch_raises():
    params, part = make(2, 1)
    with pytest.raises(ValidationError):
        estimate_observable(params, part, PauliString("XXX"), sample_set(np.ones((1, 3))))


# ---------------------------------------------------------------------------
# exact sums over the enumeration, as training runs them, against the dense oracle

@pytest.mark.parametrize("seed", range(6))
def test_exact_observable_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n_sys, n_env, m = 2 + seed % 2, 1 + seed % 3, 2
    params, part = make(n_sys, n_env, m, seed=seed + 10)
    rho = exact_density_matrix(params, part)
    for obs in random_pauli_strings(n_sys, 3, rng):
        assert_allclose(exact_observable(params, part, obs), pauli_expectation_exact(rho, obs),
                        atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_renyi_matches_dense(n):
    params, part = make(2, 2, m=3, seed=3)
    rho = exact_density_matrix(params, part)
    assert_allclose(exact_trace_power(params, part, n), trace_power(rho, n), atol=1e-12)


def test_exact_swap_entropy_matches_dense():
    params, part = make(3, 2, m=3, seed=8)
    rho = exact_density_matrix(params, part)
    s2_bits, _, floored = entropy_terms(replicas(params, part), None)
    assert_allclose(s2_bits, entropy_exact(rho, 2), atol=1e-10)
    assert not floored


def test_exact_sum_checks_cap_before_enumerating():
    # the cap is checked before the 2^n_v configurations are built (and cached)
    params, part = make(2, 15, m=1)
    before = spins._all_configs_cached.cache_info().currsize
    with pytest.raises(ValidationError):
        replicas(params, part)
    assert spins._all_configs_cached.cache_info().currsize == before


# ---------------------------------------------------------------------------
# sampled estimators

def test_sampled_observable_consistent_with_exact():
    params, part = make(2, 1, seed=4, std=0.25)
    obs = PauliString("XZ")
    truth = exact_observable(params, part, obs)
    s = mh_sample(params, SamplerConfig(n_samples=40000, burn_in=500, n_chains=8, seed=2))
    est = estimate_observable(params, part, obs, s)
    assert est.std_error > 0.0
    assert abs(est.value - truth) < 4 * est.std_error + 1e-3


def test_sampled_swap_consistent_with_exact():
    params, part = make(2, 2, seed=6, std=0.25)
    truth = -np.log2(exact_trace_power(params, part, 2))
    cfg = SamplerConfig(n_samples=30000, burn_in=500, n_chains=8, seed=9)
    reps = replicas(params, part, sample_replicas(params, cfg, 2))
    res = estimate_swap(params, part, reps)
    assert abs(res.s2_bits - truth) < 4 * res.s2_std_error + 5e-3
    swap, terms, _ = renyi_terms(reps, 2)
    swap_se = reps.streams[0].estimate(terms.real).std_error
    assert abs(terms.imag.mean()) < 5 * swap_se + 5e-3
    assert_allclose(res.s2_std_error, swap_se / (swap * np.log(2)))


def test_replica_stream_validation():
    params, part = make(1, 1, m=1)
    one = sample_set(np.ones((4, 2)))
    with pytest.raises(ValidationError):
        replicas(params, part, [one])  # fewer than 2 streams
    with pytest.raises(ValidationError):
        replicas(params, part, [one, sample_set(np.ones((3, 2)))])
    with pytest.raises(ValidationError):
        replicas(params, Partition(2, 1), [one, one])  # partition does not match
    with pytest.raises(ValidationError):
        renyi_terms(replicas(params, part, [one, one]), 3)  # order above the stream count


def test_replica_permuted_example():
    part = Partition(2, 1)
    params = init_params(part.n_v, 1, np.random.default_rng(0))
    u0 = sample_set([1.0, 1.0, 1.0])
    u1 = sample_set([-1.0, -1.0, -1.0])
    reps = replicas(params, part, [u0, u1])
    assert_allclose(reps.permuted(1, 0).configs, [[-1.0, -1.0, 1.0]])  # system of u1, env of u0
    assert_allclose(reps.permuted(0, 1).configs, [[1.0, 1.0, -1.0]])
    assert reps.permuted(1, 0) is reps.permuted(1, 0)  # evaluated once


def test_replica_terms_product_state_are_unity():
    # for a product state psi(v) = f(sys) g(env) the swapped ratio cancels
    part = Partition(1, 1)
    params = RbmParams(a=np.array([0.4, -0.7], dtype=complex),
                       b=np.zeros(1, dtype=complex), w=np.zeros((2, 1), dtype=complex))
    streams = [sample_set(all_configs(2)), sample_set(all_configs(2)[::-1])]
    _, terms, _ = renyi_terms(replicas(params, part, streams), 2)
    assert_allclose(terms, 1.0, atol=1e-12)


def test_estimate_swap_clips_above_one():
    # hand-picked tuple whose single term exceeds 1: correlated W, anti-aligned u
    part = Partition(1, 1)
    params = RbmParams(a=np.zeros(2, dtype=complex), b=np.zeros(1, dtype=complex),
                       w=np.array([[1.0], [1.0]], dtype=complex))
    reps = replicas(params, part, [sample_set([1.0, -1.0]), sample_set([-1.0, 1.0])])
    assert renyi_terms(reps, 2)[0] == pytest.approx(np.cosh(2.0) ** 2, rel=1e-12)
    assert estimate_swap(params, part, reps).s2_bits == 0.0


def test_nonpositive_swap_estimate_raises():
    # system-local phases cancel under the replica permutation (the multiset
    # of system configs is conserved), so a negative term needs a complex
    # system-environment coupling: cosh^2(x - y)/cosh^2(x + y) = -tanh^2(1)
    # for x = 1 + i pi/4, y = -i pi/4 on the anti-aligned tuple below
    part = Partition(1, 1)
    params = RbmParams(a=np.zeros(2, dtype=complex), b=np.zeros(1, dtype=complex),
                       w=np.array([[1.0 + 1j * np.pi / 4], [-1j * np.pi / 4]]))
    streams = [sample_set([1.0, 1.0]), sample_set([-1.0, -1.0])]
    with pytest.raises(EstimationError):
        estimate_swap(params, part, streams)


# ---------------------------------------------------------------------------
# polynomial von Neumann entropy

def test_vne_coefficients_cached_and_frozen():
    a1 = vne_coefficients(6)
    a2 = vne_coefficients(6)
    assert a1 is a2
    assert not a1.flags.writeable
    assert_allclose(a1[0], -a1[1:].sum(), atol=1e-12)
    with pytest.raises(ValidationError):
        vne_coefficients(1)


def test_vne_pure_state_exact_zero():
    assert vne_bits_from_raw_powers(np.ones(11), 12) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("probs,bits,tol", [
    ([0.5, 0.5], 1.0, 1e-3),
    ([0.75, 0.25], 0.8112781244591328, 1e-2),
    ([0.25] * 4, 2.0, 5e-3),
    ([0.125] * 8, 3.0, 1e-2),
])
def test_vne_from_powers_against_spectra(probs, bits, tol):
    p = np.asarray(probs)
    n_c = 12
    powers = [(p**m).sum() for m in range(2, n_c + 1)]
    assert vne_bits_from_raw_powers(powers, n_c) == pytest.approx(bits, abs=tol)


def test_vne_from_powers_range_validation():
    with pytest.raises(ValidationError):
        vne_bits_from_raw_powers([0.5, 0.5, 0.5], 3)  # wrong length for cutoff


def test_vne_raw_powers_skips_range_check():
    # sampled trace powers can stray outside (0, 1]; the polynomial takes
    # them as they are
    noisy = np.array([1.02, 0.97])
    assert np.isfinite(vne_bits_from_raw_powers(noisy, 3))
