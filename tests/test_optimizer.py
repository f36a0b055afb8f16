import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import exact_observable, trace_power
from rbmqst.errors import ValidationError
from rbmqst.estimators import (
    entropy_terms,
    estimate_swap,
    observable_terms,
    renyi_terms,
    replicas,
)
from rbmqst.oracle import (
    CircuitSpec,
    PauliString,
    entropy_exact,
    gibbs_maxent_solve,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
    trace_distance,
)
from rbmqst.optimizer import (
    Constraint,
    ConstraintSet,
    OptimizerConfig,
    XiSchedule,
    cost,
    _contract_pairs,
    exact_cost_and_grad,
    finite_difference_gradient,
    train,
)
from rbmqst.rbm import (
    Partition,
    exact_density_matrix,
    init_params,
    pack_parameters,
)
from rbmqst.samplers import SamplerConfig, derive_seed, sample_replicas


def make(n_sys=2, n_env=1, m=2, seed=0, std=0.2):
    part = Partition(n_sys, n_env)
    return init_params(part.n_v, m, np.random.default_rng(seed), std=std), part


def assert_grad_close(analytic, fd, rel=1e-5, abs_=1e-8):
    analytic = np.asarray(analytic)
    err = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    ok = (err <= abs_) | (err <= rel * scale)
    assert ok.all(), f"worst coordinate {int(np.argmax(err))}: abs err {err.max():.3e}"


# ---------------------------------------------------------------------------
# cost pieces and config validation

def test_cost_value():
    assert cost(1.5, [0.1, -0.2], [1.0, 2.0]) == pytest.approx(-1.41)


def test_xi_schedule_frozen_values():
    sched = XiSchedule()
    assert sched.at(0.1, 0) == pytest.approx(0.1)
    assert sched.at(0.1, 9) == pytest.approx(0.1)
    assert sched.at(0.1, 30) == pytest.approx(0.1 * 1.2**3)
    assert sched.at(50.0, 1000) == 100.0  # capped at xi_max


def test_xi_schedule_validation():
    with pytest.raises(ValidationError):
        XiSchedule(xi_init=0.0)
    with pytest.raises(ValidationError):
        XiSchedule(xi_init=200.0, xi_max=100.0)
    with pytest.raises(ValidationError):
        XiSchedule(growth=0.9)
    with pytest.raises(ValidationError):
        XiSchedule(block=0)


def test_constraint_validation():
    with pytest.raises(ValidationError):
        Constraint(PauliString("Z"), target=1.5, xi=1.0)
    with pytest.raises(ValidationError):
        Constraint(PauliString("Z"), target=0.5, xi=0.0)
    with pytest.raises(ValidationError):
        ConstraintSet(entries=())
    with pytest.raises(ValidationError):
        ConstraintSet(entries=(Constraint(PauliString("Z"), 0.1, 1.0),
                               Constraint(PauliString("Z"), 0.2, 1.0)))


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0},
    {"samples_per_epoch": 0},
    {"vne_cutoff": 1},
    {"learning_rate": 0.0},
    {"method": "sgd"},
    {"entropy_mode": "renyi3"},
])
def test_optimizer_config_validation(kwargs):
    with pytest.raises(ValidationError):
        OptimizerConfig(**kwargs)


# ---------------------------------------------------------------------------
# analytic gradients vs central finite differences (exact-sum mode)

def renyi_value_and_grad(p, part, n, streams=None):
    value, _, pairs = renyi_terms(replicas(p, part, streams), n)
    return value, _contract_pairs(p, pairs)


def entropy_value_and_grad(p, part, n_c=None):
    """Exact S2 (n_c None) or polynomial von Neumann entropy, its gradient
    and whether the S2 floor bound."""
    bits, pairs, floored = entropy_terms(replicas(p, part), n_c)
    return bits, _contract_pairs(p, pairs), floored


@pytest.mark.parametrize("letters", ["XZ", "YI", "ZZ"])
def test_grad_observable_matches_fd(letters):
    params, part = make(2, 1, m=2, seed=3)
    obs = PauliString(letters)
    batch = replicas(params, part).streams[0]
    grad = _contract_pairs(params, observable_terms(params, part, obs, batch)[2])
    fd = finite_difference_gradient(lambda p: exact_observable(p, part, obs), params, h=1e-5)
    assert_grad_close(grad, fd)


@pytest.mark.parametrize("n", [2, 3])
def test_renyi_grad_matches_fd(n):
    params, part = make(2, 2, m=2, seed=7)
    value, grad = renyi_value_and_grad(params, part, n)
    rho = exact_density_matrix(params, part)
    assert_allclose(value, trace_power(rho, n), atol=1e-12)
    fd = finite_difference_gradient(
        lambda p: renyi_value_and_grad(p, part, n)[0], params, h=1e-5)
    assert_grad_close(grad, fd)


def test_s2_grad_matches_fd():
    params, part = make(2, 1, m=2, seed=11)
    s_bits, grad, floored = entropy_value_and_grad(params, part)
    assert grad.shape == (pack_parameters(params).size,)
    assert not floored
    fd = finite_difference_gradient(
        lambda p: entropy_value_and_grad(p, part)[0], params, h=1e-5)
    assert_grad_close(grad, fd)


def test_vne_grad_matches_fd():
    # coefficients grow steeply with the cutoff; n_c = 6 keeps central
    # differences at h = 1e-5 out of the roundoff regime
    params, part = make(2, 1, m=2, seed=13)
    _, grad, _ = entropy_value_and_grad(params, part, 6)
    fd = finite_difference_gradient(
        lambda p: entropy_value_and_grad(p, part, 6)[0], params, h=1e-5)
    assert_grad_close(grad, fd, rel=1e-4, abs_=1e-7)


@pytest.mark.parametrize("mode,n_c,h", [("renyi2", 12, 1e-5), ("renyi2_then_vne", 6, 1e-5)])
def test_exact_cost_and_grad_matches_fd(mode, n_c, h):
    params, part = make(2, 1, m=2, seed=17)
    cs = ConstraintSet(entries=(Constraint(PauliString("ZZ"), 0.3, 1.0),
                                Constraint(PauliString("XI"), -0.1, 1.0)))
    xis = [1.5, 0.7]
    _, grad = exact_cost_and_grad(params, part, cs, xis, entropy_mode=mode, n_c=n_c)
    fd = finite_difference_gradient(
        lambda p: exact_cost_and_grad(p, part, cs, xis, entropy_mode=mode, n_c=n_c)[0],
        params, h=h)
    assert_grad_close(grad, fd)


def test_finite_difference_vector_and_params_agree():
    params, part = make(1, 1, m=1, seed=19)
    with pytest.raises(ValidationError):
        finite_difference_gradient(lambda p: entropy_value_and_grad(p, part)[0], params, h=0.0)


def test_sampled_renyi_value_matches_estimator_on_same_streams():
    params, part = make(2, 1, m=2, seed=23)
    cfg = SamplerConfig(n_samples=512, burn_in=64, n_chains=4, seed=5)
    streams = sample_replicas(params, cfg, 2)
    value, grad = renyi_value_and_grad(params, part, 2, streams)
    assert 0.0 < value < 1.0
    assert_allclose(-np.log2(value), estimate_swap(params, part, streams).s2_bits, rtol=1e-12)
    assert np.all(np.isfinite(grad))


def test_sampled_grad_unbiased_toward_exact():
    # the sampled gradient estimator should agree with the exact-sum gradient
    # to within a few standard errors on a healthy sample budget
    params, part = make(2, 1, m=2, seed=29, std=0.15)
    _, exact = renyi_value_and_grad(params, part, 2)
    cfg = SamplerConfig(n_samples=60000, burn_in=500, n_chains=8, seed=31)
    _, sampled = renyi_value_and_grad(params, part, 2, sample_replicas(params, cfg, 2))
    assert np.abs(sampled - exact).max() < 0.02


# ---------------------------------------------------------------------------
# training loop

def zstring_constraints(targets, xi=0.5):
    names = ["Z"]
    return ConstraintSet(entries=tuple(
        Constraint(PauliString(n), t, xi) for n, t in zip(names, targets)))


def test_exact_train_reaches_gibbs_maxent():
    params, part = make(1, 1, m=1, seed=0, std=0.05)
    cs = zstring_constraints([0.5])
    opt = OptimizerConfig(epochs=300, exact_sum=True, entropy_mode="renyi2", seed=0)
    final, trace = train(params, cs, XiSchedule(xi_init=0.5), opt, SamplerConfig())
    assert trace.status == "ok"
    assert len(trace.records) == 300
    rho = exact_density_matrix(final, part)
    rho_me, _ = gibbs_maxent_solve([PauliString("Z")], [0.5])
    assert trace_distance(rho, rho_me) < 0.02
    assert abs(rho[0, 0].real - 0.75) < 0.02


def test_exact_train_reaches_noncommuting_maxent():
    # criterion 5's set-up (ZYY, ZYZ, ZII, XXZ do not commute) in exact-sum
    # mode for 1200 epochs: over derive_seed(123, 0..39) the trained state
    # sits 0.020-0.040 in trace distance and at most 0.0105 bits in S2 from
    # the dense solver's MaxEnt state; this seed reads 0.0227 and 0.0021
    state = random_circuit_state(CircuitSpec(layers=4, seed=42, qubit_count=6))
    rho_t = partial_trace(state, keep=range(3))
    obs = random_pauli_strings(3, 4, np.random.default_rng(7))
    targets = [pauli_expectation_exact(rho_t, o) for o in obs]
    cons = ConstraintSet(tuple(
        Constraint(obs=o, target=t, xi=0.1) for o, t in zip(obs, targets)))
    seed = derive_seed(123, 0)
    opt = OptimizerConfig(epochs=1200, samples_per_epoch=1024, seed=seed, exact_sum=True)
    params, trace = train(init_params(6, 3, np.random.default_rng(seed)), cons, XiSchedule(),
                          opt, SamplerConfig(n_samples=1024, burn_in=256, n_chains=16, seed=0))
    assert trace.status == "ok", trace.message
    rho_me, _ = gibbs_maxent_solve(obs, targets)
    rho = exact_density_matrix(params, Partition(3, 3))
    assert trace_distance(rho, rho_me) < 0.06
    assert abs(entropy_exact(rho, 2) - entropy_exact(rho_me, 2)) < 0.03


def test_trace_record_schema_exact_mode():
    params, _ = make(1, 1, m=1, seed=1)
    cs = zstring_constraints([0.2])
    opt = OptimizerConfig(epochs=25, exact_sum=True, seed=1)
    _, trace = train(params, cs, XiSchedule(), opt, SamplerConfig())
    rec = trace.records[0]
    assert set(rec) == {"epoch", "cost", "entropy_bits", "residuals",
                        "acceptance_rate", "autocorr_time", "xi_values", "grad_norm"}
    assert rec["acceptance_rate"] is None
    assert rec["autocorr_time"] is None
    assert rec["residuals"].keys() == {"Z"}
    assert trace.records[-1]["epoch"] == 24
    # xi grows by the schedule across blocks
    assert trace.records[20]["xi_values"][0] > trace.records[0]["xi_values"][0]


def test_sampled_train_smoke():
    params, _ = make(1, 1, m=1, seed=2)
    cs = zstring_constraints([0.4])
    opt = OptimizerConfig(epochs=20, samples_per_epoch=256, seed=3)
    sampler = SamplerConfig(n_samples=256, burn_in=32, n_chains=4, seed=3)
    final, trace = train(params, cs, XiSchedule(), opt, sampler)
    assert trace.status == "ok"
    assert len(trace.records) == 20
    assert 0.0 < trace.records[0]["acceptance_rate"] <= 1.0
    assert all(r["autocorr_time"] >= 1.0 for r in trace.records)
    assert np.isfinite(trace.records[-1]["cost"])


def test_sampled_train_continues_chains_across_epochs(monkeypatch):
    # epoch t starts where epoch t-1's chains ended, with burn_in // 8;
    # epoch 0 and the switch from 2 to vne_cutoff streams start fresh
    import rbmqst.optimizer as optimizer
    calls = []
    original = optimizer.sample_replicas

    def recorded(params, cfg, k, *, start=None):
        streams = original(params, cfg, k, start=start)
        ends = np.concatenate([s.chain_view()[:, -1] for s in streams])
        calls.append((cfg.burn_in, None if start is None else np.array(start), ends))
        return streams

    monkeypatch.setattr(optimizer, "sample_replicas", recorded)
    params, _ = make(2, 1, m=2, seed=2)
    opt = OptimizerConfig(epochs=20, samples_per_epoch=64, entropy_mode="renyi2_then_vne",
                          vne_cutoff=3, seed=4)
    sampler = SamplerConfig(n_samples=64, burn_in=40, n_chains=4)
    _, trace = train(params, MIXED, XiSchedule(), opt, sampler)
    assert trace.status == "ok"
    assert len(calls) == 20
    switch = 18  # the final 10% of 20 epochs use the von Neumann entropy
    for epoch, (burn_in, start, _) in enumerate(calls):
        if epoch in (0, switch):
            assert start is None
            assert burn_in == 40
        else:
            assert np.array_equal(start, calls[epoch - 1][2])
            assert burn_in == 5
    assert len(calls[switch][2]) == 3 * 4


def test_train_seed_reproducible():
    params, _ = make(1, 1, m=1, seed=2)
    cs = zstring_constraints([0.4])
    opt = OptimizerConfig(epochs=10, samples_per_epoch=128, seed=9)
    sampler = SamplerConfig(n_samples=128, burn_in=16, n_chains=4, seed=9)
    f1, t1 = train(params, cs, XiSchedule(), opt, sampler)
    f2, t2 = train(params, cs, XiSchedule(), opt, sampler)
    assert_allclose(pack_parameters(f1), pack_parameters(f2))
    assert t1.records[-1]["cost"] == t2.records[-1]["cost"]


def test_grad_clip_accounting():
    params, _ = make(1, 1, m=1, seed=4)
    cs = zstring_constraints([0.9], xi=50.0)
    opt = OptimizerConfig(epochs=15, exact_sum=True, grad_clip=1e-4, seed=0)
    _, trace = train(params, cs, XiSchedule(xi_init=50.0), opt, SamplerConfig())
    assert trace.clip_events == 15  # every epoch exceeds the tiny clip norm


def test_train_validation():
    params, _ = make(1, 1, m=1)
    mixed = ConstraintSet(entries=(Constraint(PauliString("Z"), 0.1, 1.0),
                                   Constraint(PauliString("ZZ"), 0.1, 1.0)))
    with pytest.raises(ValidationError):
        train(params, mixed, XiSchedule(), OptimizerConfig(epochs=1), SamplerConfig())
    wide = ConstraintSet(entries=(Constraint(PauliString("ZZZ"), 0.1, 1.0),))
    with pytest.raises(ValidationError):
        train(params, wide, XiSchedule(), OptimizerConfig(epochs=1), SamplerConfig())


def test_entropy_never_exceeds_bound_during_exact_training():
    params, part = make(2, 1, m=2, seed=6, std=0.1)
    cs = ConstraintSet(entries=(Constraint(PauliString("ZI"), 0.3, 0.5),))
    opt = OptimizerConfig(epochs=40, exact_sum=True, entropy_mode="renyi2", seed=0)
    _, trace = train(params, cs, XiSchedule(), opt, SamplerConfig())
    bound = min(part.n_sys, part.n_env)
    assert all(r["entropy_bits"] <= bound + 1e-9 for r in trace.records)


# ---------------------------------------------------------------------------
# one evaluation per configuration array per epoch

def count_evaluations(monkeypatch):
    import rbmqst.estimators as estimators
    import rbmqst.rbm as rbm
    calls = []
    original = rbm.evaluate

    def counted(params, configs):
        calls.append(np.shape(configs)[0])
        return original(params, configs)

    monkeypatch.setattr(rbm, "evaluate", counted)
    monkeypatch.setattr(estimators, "evaluate", counted)
    return calls


MIXED = ConstraintSet(entries=(Constraint(PauliString("ZZ"), 0.2, 1.0),
                               Constraint(PauliString("XI"), 0.1, 1.0),
                               Constraint(PauliString("YZ"), -0.1, 1.0)))
N_OFF_DIAGONAL = 2


@pytest.mark.parametrize("mode,bound", [("renyi2", 4), ("renyi2_then_vne", 10)])
def test_sampled_epoch_evaluates_each_array_once(monkeypatch, mode, bound):
    # renyi2: 2 streams + 2 permuted arrays; vne at cutoff 4: 4 streams, 3
    # permuted arrays shared across powers, 3 closing ones; plus one
    # connected array per off-diagonal constraint
    params, _ = make(2, 2, m=2, seed=3)
    calls = count_evaluations(monkeypatch)
    opt = OptimizerConfig(epochs=1, samples_per_epoch=128, entropy_mode=mode, vne_cutoff=4)
    _, trace = train(params, MIXED, XiSchedule(), opt,
                     SamplerConfig(n_samples=128, burn_in=8, n_chains=4))
    assert trace.status == "ok"
    assert len(calls) <= bound + N_OFF_DIAGONAL


def test_exact_epoch_enumerates_once(monkeypatch):
    params, part = make(2, 2, m=2, seed=3)
    calls = count_evaluations(monkeypatch)
    opt = OptimizerConfig(epochs=1, exact_sum=True, entropy_mode="renyi2_then_vne")
    train(params, MIXED, XiSchedule(), opt, SamplerConfig())
    # connected configurations are rows of the enumeration: gathered, not evaluated
    assert calls == [2**part.n_v]


def test_plain_gradient_step_is_lr_times_exact_gradient():
    params, part = make(2, 1, m=2, seed=5)
    opt = OptimizerConfig(epochs=1, exact_sum=True, entropy_mode="renyi2",
                          method="plain-gradient", learning_rate=0.03, grad_clip=1e6)
    final, trace = train(params, MIXED, XiSchedule(), opt, SamplerConfig())
    _, g = exact_cost_and_grad(params, part, MIXED, trace.records[0]["xi_values"])
    assert trace.clip_events == 0
    assert_allclose(pack_parameters(final), pack_parameters(params) - 0.03 * g,
                    rtol=0, atol=1e-12)


@pytest.mark.parametrize("exact_sum,mode", [(False, "renyi2"), (False, "renyi2_then_vne"),
                                             (True, "renyi2_then_vne")],
                         ids=["sampled_renyi2", "sampled_vne", "exact"])
def test_epoch_contracts_each_evaluated_array_once(monkeypatch, exact_sum, mode):
    import rbmqst.optimizer as optimizer
    params, _ = make(2, 2, m=2, seed=3)
    evaluations = count_evaluations(monkeypatch)
    contractions = []
    original = optimizer.contract

    def counted(params, batch, c):
        contractions.append(batch.configs.shape[0])
        return original(params, batch, c)

    monkeypatch.setattr(optimizer, "contract", counted)
    opt = OptimizerConfig(epochs=1, samples_per_epoch=128, entropy_mode=mode, vne_cutoff=4,
                          exact_sum=exact_sum)
    _, trace = train(params, MIXED, XiSchedule(), opt,
                     SamplerConfig(n_samples=128, burn_in=8, n_chains=4))
    assert trace.status == "ok"
    assert len(contractions) == len(evaluations)
    if exact_sum:
        assert len(evaluations) == 1


def test_numerical_blowup_ends_training_as_diverged(monkeypatch):
    import rbmqst.rbm as rbm
    original = rbm._log2cosh_tanh
    calls = []

    def failing(x, y):
        calls.append(1)
        re, im, tanh = original(x, y)
        return (re * np.nan if len(calls) > 3 else re), im, tanh

    monkeypatch.setattr(rbm, "_log2cosh_tanh", failing)
    params, _ = make(1, 1, m=1, seed=1)
    opt = OptimizerConfig(epochs=10, exact_sum=True, entropy_mode="renyi2")
    _, trace = train(params, zstring_constraints([0.2]), XiSchedule(), opt, SamplerConfig())
    assert trace.status == "diverged"
    assert len(trace.records) == 3
    assert "non-finite log amplitude" in trace.message


def test_training_through_a_near_zero_of_cosh_ends_ok():
    # criterion 6's set-up in exact-sum mode on the seed derive_seed(55, 103):
    # a hidden unit learns W = +-i pi/4 on four sites, so theta comes within
    # 1e-9 of -i pi/2, where 2cosh theta nearly vanishes; log psi stays finite
    zstrings = [PauliString(s) for s in ("ZII", "IZI", "ZZZ")]
    state = random_circuit_state(CircuitSpec(layers=4, seed=5, qubit_count=6))
    rho_t = partial_trace(state, keep=range(3))
    targets = [pauli_expectation_exact(rho_t, o) for o in zstrings]
    cons = ConstraintSet(tuple(
        Constraint(obs=o, target=t, xi=0.1) for o, t in zip(zstrings, targets)))
    seed = derive_seed(55, 103)
    opt = OptimizerConfig(epochs=600, samples_per_epoch=2048, seed=seed, exact_sum=True)
    params, trace = train(init_params(6, 3, np.random.default_rng(seed)), cons,
                          XiSchedule(xi_max=20.0), opt, SamplerConfig(n_samples=2048, burn_in=256))
    assert trace.status == "ok", trace.message
    rho_me, _ = gibbs_maxent_solve(zstrings, targets)
    assert trace_distance(exact_density_matrix(params, Partition(3, 3)), rho_me) < 0.1
