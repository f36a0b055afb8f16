import numpy as np
import pytest
from numpy.testing import assert_allclose

from rbmqst.errors import EstimationError, ValidationError
from rbmqst import spins
from rbmqst.estimators import (
    estimate_observable,
    estimate_renyi_n,
    estimate_swap,
    observable_terms,
    pauli_action,
    renyi_terms,
    replicas,
    required_samples,
    vne_bits_from_raw_powers,
    vne_coefficients,
    vne_from_powers,
    weighted_batch,
)
from rbmqst.oracle import (
    PauliString,
    entropy_exact,
    pauli_expectation_exact,
    random_pauli_strings,
    trace_power,
)
from rbmqst.rbm import (
    Partition,
    RbmParams,
    exact_density_matrix,
    init_params,
    log_amplitude,
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
    return observable_terms(params, part, obs, weighted_batch(params, part, configs))[1]


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
    got = local_estimators(params, part, PauliString("XI"), v[None, :])
    assert_allclose(got, [want], rtol=1e-12)
    # the sampled value of a one-row batch is the real part of that estimator
    est = estimate_observable(params, part, PauliString("XI"), samples=v[None, :])
    assert est.value == pytest.approx(want.real, rel=1e-12)


def test_obs_width_mismatch_raises():
    params, part = make(2, 1)
    with pytest.raises(ValidationError):
        estimate_observable(params, part, PauliString("XXX"), samples=np.ones((1, 3)))


# ---------------------------------------------------------------------------
# exact-sum estimators against the dense oracle

@pytest.mark.parametrize("seed", range(6))
def test_exact_observable_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n_sys, n_env, m = 2 + seed % 2, 1 + seed % 3, 2
    params, part = make(n_sys, n_env, m, seed=seed + 10)
    rho = exact_density_matrix(params, part)
    for obs in random_pauli_strings(n_sys, 3, rng):
        est = estimate_observable(params, part, obs, exact_sum=True)
        assert est.mode == "exact_sum"
        assert est.std_error == 0.0
        assert_allclose(est.value, pauli_expectation_exact(rho, obs), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_renyi_matches_dense(n):
    params, part = make(2, 2, m=3, seed=3)
    rho = exact_density_matrix(params, part)
    est = estimate_renyi_n(params, part, n, exact_sum=True)
    assert_allclose(est.value, trace_power(rho, n), atol=1e-12)


def test_exact_swap_entropy_matches_dense():
    params, part = make(3, 2, m=3, seed=8)
    rho = exact_density_matrix(params, part)
    res = estimate_swap(params, part, exact_sum=True)
    assert_allclose(res.s2_bits, entropy_exact(rho, 2), atol=1e-10)
    assert res.s2_std_error == 0.0
    assert not res.clipped


def test_exact_sum_respects_cap():
    params, part = make(2, 2)
    with pytest.raises(ValidationError):
        estimate_observable(params, part, PauliString("ZZ"), exact_sum=True, cap=3)


def test_exact_sum_checks_cap_before_enumerating():
    # the cap is checked before the 2^n_v configurations are built (and cached)
    params, part = make(2, 15, m=1)
    before = spins._all_configs_cached.cache_info().currsize
    with pytest.raises(ValidationError):
        estimate_observable(params, part, PauliString("ZZ"), exact_sum=True)
    with pytest.raises(ValidationError):
        estimate_swap(params, part, exact_sum=True)
    assert spins._all_configs_cached.cache_info().currsize == before


# ---------------------------------------------------------------------------
# sampled estimators

def test_sampled_observable_consistent_with_exact():
    params, part = make(2, 1, seed=4, std=0.25)
    obs = PauliString("XZ")
    truth = estimate_observable(params, part, obs, exact_sum=True).value
    s = mh_sample(params, SamplerConfig(n_samples=40000, burn_in=500, n_chains=8, seed=2))
    est = estimate_observable(params, part, obs, samples=s)
    assert est.mode == "sampled"
    assert est.std_error > 0.0
    assert abs(est.value - truth) < 4 * est.std_error + 1e-3


def test_sampled_swap_consistent_with_exact():
    params, part = make(2, 2, seed=6, std=0.25)
    truth = estimate_swap(params, part, exact_sum=True).s2_bits
    cfg = SamplerConfig(n_samples=30000, burn_in=500, n_chains=8, seed=9)
    res = estimate_swap(params, part, replica_samples=sample_replicas(params, cfg, 2))
    assert abs(res.s2_bits - truth) < 4 * res.s2_std_error + 5e-3
    assert abs(res.imag_mean) < 5 * res.swap.std_error + 5e-3
    assert_allclose(res.s2_std_error, res.swap.std_error / (res.swap.value * np.log(2)))


def test_estimate_observable_requires_samples():
    params, part = make()
    with pytest.raises(ValidationError):
        estimate_observable(params, part, PauliString("ZZ"))


def test_replica_stream_validation():
    params, part = make(1, 1, m=1)
    one = np.ones((4, 2))
    with pytest.raises(ValidationError):
        estimate_renyi_n(params, part, 2, replica_samples=[one])  # wrong count
    with pytest.raises(ValidationError):
        estimate_renyi_n(params, part, 2, replica_samples=[one, np.ones((3, 2))])
    with pytest.raises(ValidationError):
        estimate_renyi_n(params, part, 1, replica_samples=[one])  # order < 2


def test_replica_permuted_example():
    part = Partition(2, 1)
    params = init_params(part.n_v, 1, np.random.default_rng(0))
    u0 = np.array([[1.0, 1.0, 1.0]])
    u1 = np.array([[-1.0, -1.0, -1.0]])
    reps = replicas(params, part, [u0, u1], 2)
    assert_allclose(reps.permuted(1, 0).configs, [[-1.0, -1.0, 1.0]])  # system of u1, env of u0
    assert_allclose(reps.permuted(0, 1).configs, [[1.0, 1.0, -1.0]])
    assert reps.permuted(1, 0) is reps.permuted(1, 0)  # evaluated once


def test_replica_terms_product_state_are_unity():
    # for a product state psi(v) = f(sys) g(env) the swapped ratio cancels
    part = Partition(1, 1)
    params = RbmParams(a=np.array([0.4, -0.7], dtype=complex),
                       b=np.zeros(1, dtype=complex), w=np.zeros((2, 1), dtype=complex))
    streams = [all_configs(2), all_configs(2)[::-1].copy()]
    _, terms, _ = renyi_terms(replicas(params, part, streams, 2), 2)
    assert_allclose(terms, 1.0, atol=1e-12)


def test_estimate_swap_clips_above_one():
    # hand-picked tuple whose single term exceeds 1: correlated W, anti-aligned u
    part = Partition(1, 1)
    params = RbmParams(a=np.zeros(2, dtype=complex), b=np.zeros(1, dtype=complex),
                       w=np.array([[1.0], [1.0]], dtype=complex))
    streams = [np.array([[1.0, -1.0]]), np.array([[-1.0, 1.0]])]
    res = estimate_swap(params, part, replica_samples=streams)
    assert res.swap.value == pytest.approx(np.cosh(2.0) ** 2, rel=1e-12)
    assert res.clipped
    assert res.s2_bits == 0.0


def test_nonpositive_swap_estimate_raises():
    # system-local phases cancel under the replica permutation (the multiset
    # of system configs is conserved), so a negative term needs a complex
    # system-environment coupling: cosh^2(x - y)/cosh^2(x + y) = -tanh^2(1)
    # for x = 1 + i pi/4, y = -i pi/4 on the anti-aligned tuple below
    part = Partition(1, 1)
    params = RbmParams(a=np.zeros(2, dtype=complex), b=np.zeros(1, dtype=complex),
                       w=np.array([[1.0 + 1j * np.pi / 4], [-1j * np.pi / 4]]))
    streams = [np.array([[1.0, 1.0]]), np.array([[-1.0, -1.0]])]
    with pytest.raises(EstimationError):
        estimate_swap(params, part, replica_samples=streams)


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
    assert vne_from_powers(np.ones(11), 12) == pytest.approx(0.0, abs=1e-12)


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
    assert vne_from_powers(powers, n_c) == pytest.approx(bits, abs=tol)


def test_vne_from_powers_range_validation():
    with pytest.raises(ValidationError):
        vne_from_powers([0.5, 1.5], 3)
    with pytest.raises(ValidationError):
        vne_from_powers([0.0, 0.5], 3)
    with pytest.raises(ValidationError):
        vne_from_powers([0.5, 0.5, 0.5], 3)  # wrong length for cutoff


def test_vne_raw_powers_skips_range_check():
    # sampled trace powers can stray outside (0, 1]; the raw entry point
    # evaluates the same polynomial without rejecting them
    noisy = np.array([1.02, 0.97])
    assert np.isfinite(vne_bits_from_raw_powers(noisy, 3))


def test_required_samples():
    assert required_samples(1.0, 0.01) == 10000
    assert required_samples(0.0, 0.1) == 1
    with pytest.raises(ValidationError):
        required_samples(1.0, 0.0)
    with pytest.raises(ValidationError):
        required_samples(-1.0, 0.1)
