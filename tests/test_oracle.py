import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import trace_power
from rbmqst.errors import DenseCapError, InfeasibleTargetsError, ValidationError
from rbmqst.oracle import (
    CircuitSpec,
    PauliString,
    apply_gate,
    entropy_exact,
    gibbs_maxent_solve,
    haar_unitary,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
    trace_distance,
    validate_density_matrix,
    zero_state,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT = np.eye(4)[[0, 1, 3, 2]]


def bell_state():
    psi = apply_gate(zero_state(2), H, [0])
    return apply_gate(psi, CNOT, [0, 1])


def ghz_state(n=3):
    psi = apply_gate(zero_state(n), H, [0])
    for q in range(n - 1):
        psi = apply_gate(psi, CNOT, [q, q + 1])
    return psi


# ---------------------------------------------------------------------------
# Pauli strings

def test_pauli_string_validation():
    with pytest.raises(ValidationError):
        PauliString("XQZ")
    with pytest.raises(ValidationError):
        PauliString("")
    assert PauliString("IXYZ").n_qubits == 4
    assert PauliString("ZIZ").is_diagonal
    assert not PauliString("ZXZ").is_diagonal


def test_pauli_matrix_ordering():
    # qubit 0 is the most significant factor: "XZ" = X (x) Z
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert_allclose(PauliString("XZ").matrix(), np.kron(x, z))
    assert_allclose(PauliString("Y").matrix(), np.array([[0, -1j], [1j, 0]]))


def test_pauli_matrix_involution():
    for s in ("X", "ZZ", "XYZ", "IYXI"):
        m = PauliString(s).matrix()
        assert_allclose(m @ m, np.eye(m.shape[0]), atol=1e-14)
        assert_allclose(m, m.conj().T)


def test_random_pauli_strings_unique_nonidentity():
    rng = np.random.default_rng(0)
    obs = random_pauli_strings(3, 10, rng)
    ids = [o.identifier for o in obs]
    assert len(set(ids)) == 10
    assert "III" not in ids
    with pytest.raises(ValidationError):
        random_pauli_strings(1, 4, rng)  # only 3 non-identity strings exist


# ---------------------------------------------------------------------------
# circuit simulator

def test_zero_state_and_gate_application():
    psi = zero_state(2)
    assert psi[0] == 1.0 and abs(np.linalg.norm(psi) - 1) < 1e-15
    plus = apply_gate(psi, H, [0])
    assert_allclose(plus, np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-15)


def test_apply_gate_rejects_nonunitary():
    with pytest.raises(ValidationError):
        apply_gate(zero_state(1), np.array([[1.0, 0.0], [0.0, 2.0]]), [0])


def test_bell_state_probabilities():
    psi = bell_state()
    assert_allclose(np.abs(psi) ** 2, [0.5, 0, 0, 0.5], atol=1e-15)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(4, np.random.default_rng(5))
    u2 = haar_unitary(4, np.random.default_rng(5))
    assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-13)
    assert_allclose(u1, u2)


def test_random_circuit_state_normalized_and_deterministic():
    spec = CircuitSpec(layers=3, seed=11, qubit_count=4)
    psi1 = random_circuit_state(spec)
    psi2 = random_circuit_state(spec)
    assert_allclose(np.linalg.norm(psi1), 1.0, atol=1e-12)
    assert_allclose(psi1, psi2)
    assert not np.allclose(psi1, random_circuit_state(CircuitSpec(layers=3, seed=12,
                                                                  qubit_count=4)))


def test_circuit_spec_validation():
    with pytest.raises(ValidationError):
        CircuitSpec(layers=0, seed=1, qubit_count=2)


# ---------------------------------------------------------------------------
# partial trace and density matrices

def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(bell_state(), keep=[0])
    assert_allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    # |+> (x) |1>: tracing out qubit 1 leaves the pure |+><+|
    psi = apply_gate(zero_state(2), H, [0])
    psi = apply_gate(psi, np.array([[0, 1], [1, 0]], dtype=complex), [1])
    rho = partial_trace(psi, keep=[0])
    assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-14)


def test_partial_trace_keep_all():
    psi = bell_state()
    assert_allclose(partial_trace(psi, keep=[0, 1]), np.outer(psi, psi.conj()), atol=1e-15)


def test_partial_trace_of_matrix_matches_vector_path():
    psi = random_circuit_state(CircuitSpec(layers=2, seed=3, qubit_count=4))
    rho_full = np.outer(psi, psi.conj())
    reference = np.einsum("arbr->ab", rho_full.reshape(4, 4, 4, 4))  # (kept, rest) twice
    assert_allclose(partial_trace(psi, keep=[0, 1]), reference, atol=1e-13)
    with pytest.raises(ValidationError):
        partial_trace(rho_full, keep=[0, 1])  # statevectors only


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValidationError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


# ---------------------------------------------------------------------------
# expectations, powers, entropies

def test_pauli_expectation_computational_states():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert_allclose(pauli_expectation_exact(rho0, PauliString("Z")), 1.0)
    assert_allclose(pauli_expectation_exact(rho0, PauliString("X")), 0.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert_allclose(pauli_expectation_exact(plus, PauliString("X")), 1.0)


def test_pauli_expectation_ghz():
    rho = partial_trace(ghz_state(3), keep=[0, 1, 2])
    assert_allclose(pauli_expectation_exact(rho, PauliString("XXX")), 1.0, atol=1e-12)
    assert_allclose(pauli_expectation_exact(rho, PauliString("ZZI")), 1.0, atol=1e-12)
    assert_allclose(pauli_expectation_exact(rho, PauliString("ZII")), 0.0, atol=1e-12)


def test_trace_power_values():
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert_allclose(trace_power(rho, 2), 0.625)
    assert_allclose(trace_power(rho, 3), 0.4375)
    assert_allclose(trace_power(np.eye(4, dtype=complex) / 4, 2), 0.25)


def test_entropy_exact_values():
    maxmix = np.eye(2, dtype=complex) / 2
    assert_allclose(entropy_exact(maxmix, 2), 1.0, atol=1e-12)
    assert_allclose(entropy_exact(maxmix, "vne"), 1.0, atol=1e-12)
    rho = np.diag([0.75, 0.25]).astype(complex)
    # -log2(0.625) and -(0.75 log2 0.75 + 0.25 log2 0.25)
    assert_allclose(entropy_exact(rho, 2), 0.6780719051126378, atol=1e-12)
    assert_allclose(entropy_exact(rho, "vne"), 0.8112781244591328, atol=1e-12)
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert_allclose(entropy_exact(pure, 2), 0.0, atol=1e-12)
    assert_allclose(entropy_exact(pure, "vne"), 0.0, atol=1e-12)


def test_renyi_entropies_decrease_with_order():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        s2, s3, s4 = (entropy_exact(rho, n) for n in (2, 3, 4))
        vne = entropy_exact(rho, "vne")
        assert vne >= s2 - 1e-12
        assert s2 >= s3 - 1e-12 >= s4 - 2e-12


def test_trace_distance_values():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert_allclose(trace_distance(a, b), 1.0, atol=1e-14)
    assert_allclose(trace_distance(a, a), 0.0, atol=1e-14)
    assert_allclose(trace_distance(a, np.eye(2, dtype=complex) / 2), 0.5, atol=1e-14)


def test_dense_cap_enforced():
    with pytest.raises(DenseCapError):
        random_circuit_state(CircuitSpec(layers=1, seed=0, qubit_count=15))


# ---------------------------------------------------------------------------
# Gibbs MaxEnt solver

def test_gibbs_single_qubit_z():
    rho, lam = gibbs_maxent_solve([PauliString("Z")], [0.5])
    assert_allclose(np.diag(rho).real, [0.75, 0.25], atol=1e-10)
    assert_allclose(lam, [-np.arctanh(0.5)], atol=1e-10)


def test_gibbs_zero_targets_give_maximally_mixed():
    rho, lam = gibbs_maxent_solve([PauliString("ZI"), PauliString("IZ")], [0.0, 0.0])
    assert_allclose(rho, np.eye(4) / 4, atol=1e-10)
    assert_allclose(lam, 0.0, atol=1e-10)


def test_gibbs_matches_targets_on_z_strings():
    obs = [PauliString(s) for s in ("ZII", "IZI", "ZZZ")]
    targets = [0.3, -0.2, 0.1]
    rho, _ = gibbs_maxent_solve(obs, targets)
    for o, t in zip(obs, targets):
        assert_allclose(pauli_expectation_exact(rho, o), t, atol=1e-8)


def test_gibbs_is_entropy_maximizer():
    # any feasible perturbation preserving the constraints lowers the
    # entropy, for a commuting set and for one where XI anticommutes with
    # ZI and ZZ (one test id for both inputs)
    for letters, targets in ((("ZI", "IZ"), [0.4, -0.1]),
                             (("XI", "ZI", "ZZ"), [0.3, 0.2, -0.4])):
        obs = [PauliString(s) for s in letters]
        rho, _ = gibbs_maxent_solve(obs, targets)
        for o, t in zip(obs, targets):
            assert_allclose(pauli_expectation_exact(rho, o), t, atol=1e-10)
        s_me = entropy_exact(rho, "vne")
        rng = np.random.default_rng(9)
        lowered = 0
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            delta = g + g.conj().T
            # project the perturbation onto the constraint-preserving subspace
            delta -= np.trace(delta) / 4 * np.eye(4)
            for o in obs:
                m = o.matrix()
                delta -= np.trace(m @ delta).real / 4 * m
            pert = rho + 1e-3 * delta / np.abs(np.linalg.eigvalsh(delta)).max()
            if np.linalg.eigvalsh(pert).min() < 1e-12:
                continue
            pert /= np.trace(pert).real
            assert entropy_exact(pert, "vne") <= s_me + 1e-12, letters
            lowered += 1
        assert lowered == 20, letters


def test_gibbs_single_qubit_noncommuting_closed_form():
    # rho = exp(-lambda . sigma)/Z = (I + r . sigma)/2 with r = -tanh|lambda| lambda/|lambda|
    rho, lam = gibbs_maxent_solve([PauliString("X"), PauliString("Z")], [0.3, 0.3])
    r = 0.3 * np.sqrt(2.0)
    assert_allclose(lam, -np.arctanh(r) * np.array([0.3, 0.3]) / r, atol=1e-12)
    x = PauliString("X").matrix()
    z = PauliString("Z").matrix()
    assert_allclose(rho, (np.eye(2) + 0.3 * x + 0.3 * z) / 2, atol=1e-12)


def test_gibbs_infeasible_raises():
    obs = [PauliString(s) for s in ("ZI", "IZ", "ZZ")]
    with pytest.raises(InfeasibleTargetsError):
        gibbs_maxent_solve(obs, [0.9, 0.9, -0.9])


def test_gibbs_input_validation():
    with pytest.raises(ValidationError):
        gibbs_maxent_solve([], [])
    with pytest.raises(ValidationError):
        gibbs_maxent_solve([PauliString("Z")], [1.5])
    with pytest.raises(ValidationError):
        gibbs_maxent_solve([PauliString("Z"), PauliString("ZZ")], [0.1, 0.1])
