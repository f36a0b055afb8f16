import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rbmqst.rbm as rbm_module
from rbmqst import spins
from helpers import log_amplitude, zero_params
from rbmqst.errors import DenseCapError, NumericalError, ValidationError
from rbmqst.oracle import entropy_exact
from rbmqst.rbm import (
    PARAM_BOUND,
    Partition,
    RbmParams,
    contract,
    coord_label,
    enumerate_model,
    evaluate,
    exact_density_matrix,
    init_params,
    load_checkpoint,
    pack_parameters,
    re_log2cosh,
    save_checkpoint,
    unpack_parameters,
)
from rbmqst.spins import all_configs, configs_to_indices


def brute_force_amplitude(params, v):
    """Explicit sum over all hidden configurations."""
    acc = 0.0 + 0.0j
    for h in itertools.product([-1.0, 1.0], repeat=params.m):
        h = np.asarray(h)
        acc += np.exp(params.beta * (params.a @ v + params.b @ h + v @ params.w @ h))
    return acc


# ---------------------------------------------------------------------------
# spin tables

def test_all_configs_ordering():
    c = all_configs(2)
    # basis index k with bits MSB-first; spin +1 encodes bit 0
    assert_allclose(c, [[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert_allclose(configs_to_indices(c), [0, 1, 2, 3])
    assert_allclose(c[[3, 0]], [[-1, -1], [1, 1]])


def test_all_configs_read_only():
    c = all_configs(3)
    with pytest.raises(ValueError):
        c[0, 0] = 5.0


# ---------------------------------------------------------------------------
# amplitudes

def test_log_amplitude_single_unit_value():
    # n_v = m = 1, a = 0.3, b = -0.2, w = 0.5, v = +1:
    # log psi = 0.3 + log(2 cosh(0.3))
    p = RbmParams(a=np.array([0.3 + 0j]), b=np.array([-0.2 + 0j]),
                  w=np.array([[0.5 + 0j]]))
    expected = 0.3 + np.log(2 * np.cosh(0.3))
    assert_allclose(log_amplitude(p, np.array([1.0])), expected, rtol=1e-14)
    expected_m = -0.3 + np.log(2 * np.cosh(-0.7))
    assert_allclose(log_amplitude(p, np.array([-1.0])), expected_m, rtol=1e-14)


@pytest.mark.parametrize("n_v,m,seed", [(2, 1, 0), (3, 2, 1), (4, 3, 2)])
def test_log_amplitude_matches_hidden_enumeration(n_v, m, seed):
    rng = np.random.default_rng(seed)
    p = init_params(n_v, m, rng, std=0.4)
    for v in all_configs(n_v):
        assert_allclose(np.exp(log_amplitude(p, v)), brute_force_amplitude(p, v),
                        rtol=1e-12)


def test_log_amplitudes_batch_matches_single():
    rng = np.random.default_rng(3)
    p = init_params(4, 2, rng, std=0.3)
    configs = all_configs(4)
    batch = evaluate(p, configs).log_psi
    singles = np.array([log_amplitude(p, v) for v in configs])
    assert_allclose(batch, singles, rtol=1e-14)


def test_log_amplitude_stable_at_large_parameters():
    # magnitudes near the clip bound must not overflow
    p = RbmParams(a=np.full(2, PARAM_BOUND + 0j), b=np.full(3, PARAM_BOUND + 0j),
                  w=np.full((2, 3), PARAM_BOUND + 0j))
    lp = evaluate(p, all_configs(2)).log_psi
    assert np.all(np.isfinite(lp))
    # v = (+1, +1): log psi = 2*30 + 3*log(2 cosh(90)) ~ 60 + 3*(90 + log 2 - ...)
    assert_allclose(lp[0].real, 60 + 3 * (90 + np.log(2) - np.log(2)), rtol=1e-12)


def test_evaluate_shares_theta_and_guards_non_finite():
    rng = np.random.default_rng(4)
    p = init_params(3, 2, rng, std=0.5)
    configs = all_configs(3)
    batch = evaluate(p, configs)
    assert_allclose(batch.log_psi, [log_amplitude(p, v) for v in configs], rtol=1e-14)
    assert_allclose(batch.tanh, np.tanh(p.beta * (p.b + configs @ p.w)), rtol=1e-14)
    with pytest.raises(ValidationError):
        evaluate(p, np.ones((2, 4)))
    # a blow-up inside the evaluation is a numerical failure, not bad input
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError):
            evaluate(p, np.full((1, 3), np.nan))


def test_evaluate_tanh_matches_numpy_over_wide_range():
    # tanh theta from the real-arithmetic kernel, whose sum-of-squares
    # denominator does not cancel near the zeros of cosh; Re theta spans
    # [-300, 300], Im theta wraps many periods
    rng = np.random.default_rng(8)
    m = 201
    p = RbmParams(a=np.zeros(2, complex), b=np.linspace(-30.0, 30.0, m) + 0j,
                  w=1j * rng.uniform(-PARAM_BOUND, PARAM_BOUND, (2, m)), beta=10.0)
    configs = all_configs(2)
    theta = p.beta * (p.b + configs @ p.w)
    assert_allclose(evaluate(p, configs).tanh, np.tanh(theta), rtol=0, atol=1e-12)


def _wide_theta_params(seed):
    # Re theta spans [-300, 300] (beta 10), Im theta wraps many periods
    rng = np.random.default_rng(seed)
    m = 201
    return RbmParams(a=rng.uniform(-1.0, 1.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3),
                     b=np.linspace(-27.0, 27.0, m) + 1j * rng.uniform(-3.0, 3.0, m),
                     w=rng.uniform(-1.0, 1.0, (3, m))
                     + 1j * rng.uniform(-PARAM_BOUND, PARAM_BOUND, (3, m)), beta=10.0)


def test_evaluate_log_psi_matches_complex_functions():
    # beta a.v + sum_j log 2cosh theta_j with numpy's complex exp and log, in
    # the branch s theta + Log(1 + exp(-2 s theta)), s = sign Re theta, that
    # the real-arithmetic imaginary part takes
    p = _wide_theta_params(9)
    configs = all_configs(3)
    theta = p.beta * (p.b + configs @ p.w)
    assert np.abs(theta.real).max() <= 300.0
    s = np.where(theta.real >= 0, 1.0, -1.0)
    log2cosh = s * theta + np.log(1.0 + np.exp(-2.0 * s * theta))
    expected = p.beta * (configs @ p.a) + log2cosh.sum(axis=1)
    log_psi = evaluate(p, configs).log_psi
    assert_allclose(log_psi.real, expected.real, rtol=1e-12)
    assert_allclose(log_psi.imag, expected.imag, rtol=1e-12)


def test_evaluate_real_part_is_the_sampler_formula(monkeypatch):
    import rbmqst.rbm as rbm
    seen = []
    original = rbm._log2cosh_tanh

    def recorded(x, y):
        theta = x + 1j * y
        out = original(x, y)
        seen.append((theta, out[0]))
        return out

    monkeypatch.setattr(rbm, "_log2cosh_tanh", recorded)
    evaluate(_wide_theta_params(10), all_configs(3))
    (theta, re), = seen
    assert np.array_equal(re, re_log2cosh(theta))


def test_evaluate_raises_on_a_non_finite_kernel_value(monkeypatch):
    import rbmqst.rbm as rbm
    original = rbm._log2cosh_tanh

    def failing(x, y):
        re, im, tanh = original(x, y)
        return re - np.inf, im, tanh

    monkeypatch.setattr(rbm, "_log2cosh_tanh", failing)
    with pytest.raises(NumericalError):
        evaluate(init_params(2, 2, np.random.default_rng(0)), all_configs(2))


# theta = x + iy where cosh theta is 0 or nearly so, and the value of
# Re log 2cosh theta = log(4 (sinh^2 x + cos^2 y)) / 2 there
NEAR_ZEROS_OF_COSH = [(0.0, np.pi / 2), (6.7e-10, -(np.pi / 2 - 1.2e-9))] + [
    (d, np.pi / 2 + d) for d in (1e-2, 1e-4, 1e-8)]


def _re_log2cosh_reference(x, y):
    return 0.5 * math.log(4.0 * (math.sinh(x) ** 2 + math.cos(y) ** 2))


def test_evaluate_is_accurate_near_the_zeros_of_cosh():
    for x, y in NEAR_ZEROS_OF_COSH:
        p = RbmParams(a=np.zeros(1, complex), b=np.array([complex(x, y)]),
                      w=np.zeros((1, 1), complex))
        log_psi = evaluate(p, np.ones((1, 1))).log_psi[0]
        assert_allclose(log_psi.real, _re_log2cosh_reference(x, y), rtol=1e-14)
    assert _re_log2cosh_reference(0.0, np.pi / 2) == pytest.approx(-36.6387, abs=1e-4)
    assert _re_log2cosh_reference(6.7e-10, -(np.pi / 2 - 1.2e-9)) == pytest.approx(-19.7, abs=0.05)


def test_re_log2cosh_is_finite_for_finite_theta():
    y = np.concatenate([np.pi / 2 * np.arange(-8, 9), [1e-300, 1e22, 1e300, -1e300]])
    x = np.array([0.0, 5e-324, 1e-300, 1e-8, 20.0, 400.0, 1e300])
    theta = (x[:, None] + 1j * y).ravel()
    re = re_log2cosh(np.concatenate([theta, -theta]))
    assert np.all(np.isfinite(re))


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_blocked_evaluation_matches_row_by_row(blocks, extra):
    # row counts 1, B - 1, B, B + 1 and 3B + 5 around the block of B rows
    m = 20
    n = blocks * (rbm_module.BLOCK_ELEMENTS // m) + extra
    rng = np.random.default_rng(n)
    p = init_params(12, m, rng, std=0.5)
    configs = 1.0 - 2.0 * rng.integers(0, 2, size=(n, 12))
    batch = evaluate(p, configs)
    rows = [evaluate(p, v) for v in configs]
    assert_allclose(batch.log_psi, [r.log_psi[0] for r in rows], rtol=1e-12)
    assert_allclose(batch.tanh, np.concatenate([r.tanh for r in rows]), rtol=1e-12)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        RbmParams(a=np.array([0.1 + 0j]), b=np.array([0.1 + 0j]),
                  w=np.ones((2, 1), dtype=complex))  # shape mismatch
    with pytest.raises(ValidationError):
        RbmParams(a=np.array([np.inf + 0j]), b=np.array([0.0j]),
                  w=np.zeros((1, 1), dtype=complex))
    with pytest.raises(ValidationError):
        RbmParams(a=np.array([PARAM_BOUND + 1.0 + 0j]), b=np.array([0.0j]),
                  w=np.zeros((1, 1), dtype=complex))


# ---------------------------------------------------------------------------
# density matrices

def test_zero_params_give_uniform_pure_state():
    p = zero_params(4, 3)
    part = Partition(n_sys=2, n_env=2)
    _, prob = enumerate_model(p)
    assert_allclose(prob, np.full(16, 1 / 16), atol=1e-15)  # constant amplitude
    rho = exact_density_matrix(p, part)
    assert_allclose(entropy_exact(rho, 2), 0.0, atol=1e-12)
    assert_allclose(rho, np.full((4, 4), 0.25), atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_exact_density_matrix_is_valid_state(seed):
    rng = np.random.default_rng(seed)
    n_sys, n_env, m = rng.integers(1, 4), rng.integers(0, 4), rng.integers(1, 5)
    p = init_params(int(n_sys + n_env), int(m), rng, std=0.6)
    rho = exact_density_matrix(p, Partition(n_sys=int(n_sys), n_env=int(n_env)))
    assert rho.shape == (2**n_sys, 2**n_sys)
    assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_no_environment_gives_pure_state():
    rng = np.random.default_rng(7)
    p = init_params(3, 2, rng, std=0.4)
    rho = exact_density_matrix(p, Partition(n_sys=3, n_env=0))
    assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)


def test_amplitude_matrix_cap():
    # the cap is checked before the 2^n_v configurations are built (and cached)
    p = zero_params(15, 1)
    before = spins._all_configs_cached.cache_info().currsize
    with pytest.raises(DenseCapError):
        exact_density_matrix(p, Partition(n_sys=8, n_env=7))
    assert spins._all_configs_cached.cache_info().currsize == before
    # 13 system qubits: a 2^13 x 2^13 matrix, above MATRIX_CAP though n_v is below DENSE_CAP
    with pytest.raises(DenseCapError, match="cap 12"):
        exact_density_matrix(zero_params(13, 1), Partition(n_sys=13, n_env=0))
    assert spins._all_configs_cached.cache_info().currsize == before


# ---------------------------------------------------------------------------
# packed coordinates

def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(5)
    p = init_params(3, 2, rng, std=0.3)
    x = pack_parameters(p)
    assert x.shape == (2 * (3 + 2 + 6),)
    q = unpack_parameters(x, 3, 2, p.beta)
    assert_allclose(q.a, p.a)
    assert_allclose(q.b, p.b)
    assert_allclose(q.w, p.w)


def test_coord_index_and_label_agree():
    rng = np.random.default_rng(6)
    p = init_params(2, 3, rng)
    x = pack_parameters(p)
    idx = 2 * (2 + 3) + 2 * 3 + 1 * 3 + 2  # w_im block, row 1, column 2
    assert coord_label(p, idx) == "w_im[1,2]"
    assert x[idx] == p.w[1, 2].imag
    assert coord_label(p, 0) == "a_re[0]"
    assert coord_label(p, 2 * 2 + 3 + 1) == "b_im[1]"
    with pytest.raises(ValidationError):
        coord_label(p, x.size)


@pytest.mark.parametrize("n_v,m,beta,seed", [(3, 2, 1.0, 8), (4, 3, 0.7, 9)],
                         ids=["beta1", "beta07"])
def test_contract_matches_finite_differences(n_v, m, beta, seed):
    # Re sum_n c_n d log psi(v_n)/dx for every packed coordinate x; both c and
    # i*c pin the real and the imaginary part of each derivative
    rng = np.random.default_rng(seed)
    p = init_params(n_v, m, rng, std=0.4, beta=beta)
    configs = all_configs(n_v)[rng.permutation(2**n_v)[:6]]
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x0 = pack_parameters(p)
    h = 1e-6
    batch = evaluate(p, configs)
    for coeff in (c, 1j * c):
        def f(x):
            return np.real(coeff @ evaluate(unpack_parameters(x, n_v, m, beta), configs).log_psi)
        fd = np.empty(x0.size)
        for i in range(x0.size):
            e = np.zeros_like(x0)
            e[i] = h
            fd[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
        assert_allclose(contract(p, batch, coeff), fd, atol=1e-8)


def test_contract_matches_complex_matmuls():
    # the real matmuls over Re/Im parts equal the complex three-matmul form
    rng = np.random.default_rng(12)
    p = init_params(5, 3, rng, std=0.4, beta=0.7)
    configs = 1.0 - 2.0 * rng.integers(0, 2, (64, 5))
    batch = evaluate(p, configs)
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    blocks = (p.beta * (configs.T @ c), p.beta * (batch.tanh.T @ c),
              p.beta * (configs.T @ (c[:, None] * batch.tanh)).reshape(-1))
    expected = np.concatenate([part for g in blocks for part in (g.real, -g.imag)])
    assert_allclose(contract(p, batch, c), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    p = init_params(5, 3, rng, std=0.2)
    part = Partition(n_sys=3, n_env=2)
    path = tmp_path / "ck.json"
    save_checkpoint(p, part, path)
    q, part2 = load_checkpoint(path)
    assert part2 == part
    assert_allclose(q.a, p.a)
    assert_allclose(q.b, p.b)
    assert_allclose(q.w, p.w)
    assert q.beta == p.beta
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_sys", "n_env", "m", "beta", "a_re", "a_im",
                        "b_re", "b_im", "w_re", "w_im"}


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_sys": 1, "n_env": 0}))
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition(n_sys=0, n_env=1)
    with pytest.raises(ValidationError):
        Partition(n_sys=1, n_env=-1)
    assert Partition(n_sys=2, n_env=3).n_v == 5
