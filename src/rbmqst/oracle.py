"""Dense statevector / density-matrix oracle.

Small-scale exact engine: gate application, random circuit states, partial
trace, Pauli expectations, entropies, and an exact maximum-entropy Gibbs
solver for any Pauli observable set. Everything here is brute force on
dense arrays and is the ground truth the sampling estimators are tested
against.

Capped at DENSE_CAP qubits; operations refuse above the cap rather than
attempting anything clever.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DenseCapError, InfeasibleTargetsError, NumericalError, ValidationError

DENSE_CAP = 14

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)


def check_cap(qubits: int) -> None:
    if qubits > DENSE_CAP:
        raise DenseCapError(f"{qubits} qubits exceeds dense cap {DENSE_CAP}")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, one letter per system qubit."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValidationError(f"invalid Pauli letters {sorted(bad)}")

    @property
    def identifier(self) -> str:
        return self.letters

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_diagonal(self) -> bool:
        return set(self.letters) <= {"I", "Z"}

    def site_mask(self, kinds: str) -> np.ndarray:
        return np.array([c in kinds for c in self.letters], dtype=bool)

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        for c in self.letters:
            m = np.kron(m, PAULI_1Q[c])
        return m


def random_pauli_strings(n_qubits: int, k: int, rng: np.random.Generator) -> list[PauliString]:
    """k distinct non-identity Pauli strings over n_qubits."""
    if k < 1:
        raise ValidationError("observable count must be >= 1")
    if k > 4**n_qubits - 1:
        raise ValidationError("more observables requested than distinct non-identity strings")
    out: list[PauliString] = []
    seen = set()
    while len(out) < k:
        letters = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if letters in seen or set(letters) == {"I"}:
            continue
        seen.add(letters)
        out.append(PauliString(letters))
    return out


# ---------------------------------------------------------------------------
# statevector engine

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unitary: QR of a complex Ginibre matrix with phase fix."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def zero_state(qubits: int) -> np.ndarray:
    check_cap(qubits)
    psi = np.zeros(2**qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def apply_gate(state: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Apply a 2x2 or 4x4 unitary to the given qubits (qubit 0 = MSB)."""
    state = np.asarray(state, dtype=complex)
    gate = np.asarray(gate, dtype=complex)
    q = int(np.log2(state.size))
    if state.size != 2**q:
        raise ValidationError("state length is not a power of two")
    targets = list(targets)
    k = len(targets)
    if gate.shape != (2**k, 2**k):
        raise ValidationError("gate shape does not match target count")
    if len(set(targets)) != k or any(t < 0 or t >= q for t in targets):
        raise ValidationError("targets must be distinct in-range qubit indices")
    if np.max(np.abs(gate @ gate.conj().T - np.eye(2**k))) > 1e-10:
        raise ValidationError("gate is not unitary")
    psi = state.reshape([2] * q)
    psi = np.moveaxis(psi, targets, range(k))
    shape = psi.shape
    psi = gate @ psi.reshape(2**k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), targets)
    return psi.reshape(-1)


@dataclass(frozen=True)
class CircuitSpec:
    """Layered random circuit: per layer, Haar single-qubit gates on every
    qubit followed by a CNOT cascade CNOT(i, i+1), i = 0..q-2."""

    layers: int
    seed: int
    qubit_count: int

    def __post_init__(self):
        if self.layers < 1:
            raise ValidationError("layers must be >= 1")
        if self.qubit_count < 1:
            raise ValidationError("qubit_count must be >= 1")


def random_circuit_state(spec: CircuitSpec) -> np.ndarray:
    check_cap(spec.qubit_count)
    rng = np.random.default_rng(spec.seed)
    psi = zero_state(spec.qubit_count)
    for _ in range(spec.layers):
        for q in range(spec.qubit_count):
            psi = apply_gate(psi, haar_unitary(2, rng), [q])
        for q in range(spec.qubit_count - 1):
            psi = apply_gate(psi, CNOT, [q, q + 1])
    return psi


# ---------------------------------------------------------------------------
# density matrices

def validate_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValidationError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValidationError("density matrix has a negative eigenvalue")
    return rho


def partial_trace(state: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of a statevector on the kept qubits."""
    state = np.asarray(state, dtype=complex)
    keep = list(keep)
    if not keep:
        raise ValidationError("keep set must be nonempty")
    if state.ndim != 1:
        raise ValidationError("expected a statevector")
    q = int(np.log2(state.size))
    if sorted(set(keep)) != sorted(keep) or any(t < 0 or t >= q for t in keep):
        raise ValidationError("keep indices must be distinct and in range")
    rest = [i for i in range(q) if i not in keep]
    t = state.reshape([2] * q).transpose(keep + rest)
    m = t.reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def pauli_expectation_exact(rho: np.ndarray, obs: PauliString) -> float:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**obs.n_qubits:
        raise ValidationError("observable/density-matrix dimension mismatch")
    val = np.trace(rho @ obs.matrix())
    if abs(val.imag) > 1e-9:
        raise NumericalError(f"Pauli expectation has imaginary residue {val.imag:.2e}")
    return float(np.clip(val.real, -1.0, 1.0))


def entropy_exact(rho: np.ndarray, order) -> float:
    """Renyi-alpha (integer alpha >= 2) or von Neumann ("vne") entropy in bits."""
    ev = np.clip(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)), 0.0, None)
    if isinstance(order, str):
        if order != "vne":
            raise ValidationError(f"unknown entropy order {order!r}")
        pos = ev[ev > 0]
        s = float(-(pos * np.log2(pos)).sum())
    else:
        alpha = int(order)
        if alpha != order or alpha < 2:
            raise ValidationError("Renyi order must be an integer >= 2")
        s = float(np.log2((ev**alpha).sum()) / (1 - alpha))
    return max(s, 0.0) if s > -1e-9 else s


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return float(0.5 * np.abs(ev).sum())


# ---------------------------------------------------------------------------
# exact MaxEnt (Gibbs) solver

def gibbs_maxent_solve(
    observables: list[PauliString],
    targets,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact MaxEnt state rho = exp(-H)/Z, H = sum_k lambda_k O_k, matching the targets.

    Damped Newton on the convex dual log Tr exp(-H) + lambda . targets
    (Boyd & Vandenberghe, Convex Optimization, sec. 5.2 and ch. 9), for any
    Pauli set, commuting or not. Each step takes one eigh H = U diag(e) U^dagger,
    p = exp(-e)/Z, and solves K step = <O> - targets, where K, the dual's
    Hessian, is the Kubo-Mori covariance of the O_k rotated into H's
    eigenbasis:

        K_kl = Re sum_ij (O_k)_ij conj(O_l)_ij (p_i - p_j)/(e_j - e_i) - <O_k><O_l>

    with p_i on degenerate pairs (for a commuting set, the classical
    covariance). lambda = 0 start, step halved while it raises the max
    residual, convergence at max residual < tol. Returns (rho, lambdas).
    """
    if not observables:
        raise ValidationError("need at least one observable")
    n = observables[0].n_qubits
    if any(o.n_qubits != n for o in observables):
        raise ValidationError("observables must share a qubit count")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (len(observables),):
        raise ValidationError("targets/observables length mismatch")
    if np.any(np.abs(targets) > 1):
        raise ValidationError("Pauli targets must lie in [-1, 1]")
    check_cap(n)
    mats = np.stack([o.matrix() for o in observables])  # (k, dim, dim)

    def gibbs(lam):
        e, u = np.linalg.eigh(np.tensordot(lam, mats, axes=1))
        p = np.exp(e[0] - e)  # eigh sorts e ascending
        p /= p.sum()
        rot = u.conj().T @ mats @ u
        return e, u, p, rot, np.diagonal(rot, axis1=1, axis2=2).real @ p - targets

    lam = np.zeros(len(observables))
    e, u, p, rot, res = gibbs(lam)
    for _ in range(max_iter):
        if np.max(np.abs(res)) < tol:
            return validate_density_matrix((u * p) @ u.conj().T), lam
        # (p_i - p_j)/(e_j - e_i) = max(p_i, p_j) (1 - exp(-|e_i - e_j|))/|e_i - e_j|
        gap = np.abs(e[:, None] - e[None, :])
        kernel = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0)
        kernel *= np.maximum.outer(p, p)
        flat = rot.reshape(len(observables), -1)
        mean = res + targets
        cov = ((flat * kernel.reshape(-1)) @ flat.conj().T).real - np.outer(mean, mean)
        try:
            step = np.linalg.solve(cov, res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(cov, res, rcond=None)[0]
        for halvings in range(60):
            trial = lam + 0.5**halvings * step
            state = gibbs(trial)
            if np.max(np.abs(state[-1])) <= np.max(np.abs(res)):
                break
        lam = trial
        e, u, p, rot, res = state
    raise InfeasibleTargetsError(
        f"no convergence after {max_iter} Newton iterations "
        f"(max residual {np.max(np.abs(res)):.2e}); targets presumed infeasible")
