"""Complex-parameter RBM wavefunction over system + environment spins.

The (unnormalized) amplitude of a visible configuration sigma is

    psi(sigma) = exp(beta * sum_i a_i sigma_i)
                 * prod_j 2 cosh(beta * (b_j + sum_i W_ij sigma_i))

i.e. the hidden units are summed out analytically. Sign convention: the
exponent is +beta*(a.sigma + b.h + sigma.W.h). No normalization constant is
ever computed — every consumer works with ratios.

A configuration array is evaluated once into a Batch (configs, tanh theta,
log psi with theta_j = beta*(b_j + sum_i W_ij v_i)). Gradients never build
the per-configuration log-derivative table: `contract` returns
Re sum_n c_n d log psi(v_n)/dx for a coefficient vector c directly, from
d log psi/d a_k = beta v_k, d/d b_j = beta tanh theta_j and
d/d W_kj = beta v_k tanh theta_j (the derivative along an imaginary part
is i times the one along the real part).

Packed parameter vector layout (pack_parameters / contract):
Re a, Im a, Re b, Im b, Re W row-major, Im W row-major;
total 2*(n_v + m + n_v*m) real coordinates.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DenseCapError, NumericalError, ValidationError
from .oracle import DENSE_CAP
from .spins import all_configs

PARAM_BOUND = 30.0


@dataclass(frozen=True)
class Partition:
    """Visible-layer split: the first n_sys spins are the system, the
    remaining n_env are the traced-out environment."""

    n_sys: int
    n_env: int

    def __post_init__(self):
        if self.n_sys < 1:
            raise ValidationError("n_sys must be >= 1")
        if self.n_env < 0:
            raise ValidationError("n_env must be >= 0")

    @property
    def n_v(self) -> int:
        return self.n_sys + self.n_env


@dataclass(frozen=True, eq=False)
class RbmParams:
    a: np.ndarray  # complex (n_v,)
    b: np.ndarray  # complex (m,)
    w: np.ndarray  # complex (n_v, m)
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=complex))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex))
        if self.a.ndim != 1 or self.b.ndim != 1 or self.w.shape != (self.a.size, self.b.size):
            raise ValidationError("inconsistent parameter shapes")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        for arr in (self.a, self.b, self.w):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("non-finite RBM parameter")
            if arr.size and max(np.abs(arr.real).max(), np.abs(arr.imag).max()) > PARAM_BOUND + 1e-9:
                raise ValidationError(f"parameter magnitude exceeds guard {PARAM_BOUND}")

    @property
    def n_v(self) -> int:
        return self.a.size

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def n_coords(self) -> int:
        return 2 * (self.n_v + self.m + self.n_v * self.m)


def init_params(n_v: int, m: int, rng: np.random.Generator,
                std: float = 0.05, beta: float = 1.0) -> RbmParams:
    """Small complex Gaussian initialization (std per real coordinate)."""
    def draw(*shape):
        return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return RbmParams(a=draw(n_v), b=draw(m), w=draw(n_v, m), beta=beta)


def zero_params(n_v: int, m: int, beta: float = 1.0) -> RbmParams:
    return RbmParams(a=np.zeros(n_v, complex), b=np.zeros(m, complex),
                     w=np.zeros((n_v, m), complex), beta=beta)


# ---------------------------------------------------------------------------
# amplitudes

def _log2cosh(z: np.ndarray) -> np.ndarray:
    # log(2 cosh z) = s*z + log(1 + exp(-2 s z)) with s = sign(Re z),
    # keeping the exponent's real part <= 0 so exp never overflows.
    z = np.asarray(z, dtype=complex)
    s = np.where(z.real >= 0, 1.0, -1.0)
    return s * z + np.log(1.0 + np.exp(-2.0 * s * z))


@dataclass(frozen=True, eq=False)
class Batch:
    """One evaluation of a configuration array (rows of +-1 spins)."""

    configs: np.ndarray  # float (N, n_v)
    tanh: np.ndarray  # complex (N, m), tanh theta
    log_psi: np.ndarray  # complex (N,)


def evaluate(params: RbmParams, configs: np.ndarray) -> Batch:
    """Evaluate log psi and tanh theta over rows of configs, theta once."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    if configs.shape[1] != params.n_v:
        raise ValidationError("configuration length does not match n_v")
    theta = params.beta * (params.b + configs @ params.w)
    log_psi = params.beta * (configs @ params.a) + _log2cosh(theta).sum(axis=1)
    if not np.all(np.isfinite(log_psi)):
        raise NumericalError("non-finite log amplitude")
    return Batch(configs=configs, tanh=np.tanh(theta), log_psi=log_psi)


def log_amplitudes(params: RbmParams, configs: np.ndarray) -> np.ndarray:
    """Vectorized log psi over rows of configs (shape (N, n_v))."""
    return evaluate(params, configs).log_psi


def log_amplitude(params: RbmParams, config: np.ndarray) -> complex:
    return complex(log_amplitudes(params, np.asarray(config)[None, :])[0])


def amplitude_matrix(params: RbmParams, partition: Partition,
                     cap: int = DENSE_CAP) -> tuple[np.ndarray, float]:
    """Rescaled amplitudes psi_tilde = exp(log psi - c) arranged as a
    2^n_sys x 2^n_env matrix (system index = row), with c = max Re log psi.

    Every downstream quantity is a ratio, so the scale c cancels; it only
    keeps exp() in range. Returns (matrix, c).
    """
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    if partition.n_v > cap:
        raise DenseCapError(f"{partition.n_v} visible units exceeds dense cap {cap}")
    ln = log_amplitudes(params, all_configs(partition.n_v))
    c = float(ln.real.max())
    return np.exp(ln - c).reshape(2**partition.n_sys, 2**partition.n_env), c


def exact_density_matrix(params: RbmParams, partition: Partition,
                         cap: int = DENSE_CAP) -> np.ndarray:
    """System density matrix: trace out the environment spins, normalize.

    Gram form (V V^dagger with V the amplitude matrix) makes the result
    Hermitian PSD by construction.
    """
    v, _ = amplitude_matrix(params, partition, cap)
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# packed parameter vector and the gradient contraction

def pack_parameters(params: RbmParams) -> np.ndarray:
    return np.concatenate([
        params.a.real, params.a.imag,
        params.b.real, params.b.imag,
        params.w.real.reshape(-1), params.w.imag.reshape(-1),
    ])


def unpack_parameters(vector: np.ndarray, n_v: int, m: int, beta: float = 1.0) -> RbmParams:
    vector = np.asarray(vector, dtype=float)
    expected = 2 * (n_v + m + n_v * m)
    if vector.shape != (expected,):
        raise ValidationError(f"expected packed length {expected}, got {vector.shape}")
    pos = 0

    def take(k):
        nonlocal pos
        out = vector[pos:pos + k]
        pos += k
        return out

    a = take(n_v) + 1j * take(n_v)
    b = take(m) + 1j * take(m)
    w = (take(n_v * m) + 1j * take(n_v * m)).reshape(n_v, m)
    return RbmParams(a=a, b=b, w=w, beta=beta)


def coord_label(params: RbmParams, index: int) -> str:
    n_v, m = params.n_v, params.m
    blocks = [("a_re", n_v), ("a_im", n_v), ("b_re", m), ("b_im", m),
              ("w_re", n_v * m), ("w_im", n_v * m)]
    for name, size in blocks:
        if index < size:
            if name.startswith("w"):
                return f"{name}[{index // m},{index % m}]"
            return f"{name}[{index}]"
        index -= size
    raise ValidationError("packed index out of range")


def contract(params: RbmParams, batch: Batch, c: np.ndarray) -> np.ndarray:
    """Packed real vector Re sum_n c_n d log psi(v_n) / dx for complex
    coefficients c over the batch's rows: three matmuls, no (N, P) table."""
    c = np.asarray(c, dtype=complex)
    beta = params.beta
    blocks = (beta * (batch.configs.T @ c),
              beta * (batch.tanh.T @ c),
              beta * (batch.configs.T @ (c[:, None] * batch.tanh)).reshape(-1))
    return np.concatenate([part for g in blocks for part in (g.real, -g.imag)])


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: RbmParams, partition: Partition, path) -> None:
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    doc = {
        "n_sys": partition.n_sys,
        "n_env": partition.n_env,
        "m": params.m,
        "beta": params.beta,
        "a_re": params.a.real.tolist(), "a_im": params.a.imag.tolist(),
        "b_re": params.b.real.tolist(), "b_im": params.b.imag.tolist(),
        "w_re": params.w.real.tolist(), "w_im": params.w.imag.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple[RbmParams, Partition]:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        partition = Partition(int(doc["n_sys"]), int(doc["n_env"]))
        params = RbmParams(
            a=np.asarray(doc["a_re"], float) + 1j * np.asarray(doc["a_im"], float),
            b=np.asarray(doc["b_re"], float) + 1j * np.asarray(doc["b_im"], float),
            w=np.asarray(doc["w_re"], float) + 1j * np.asarray(doc["w_im"], float),
            beta=float(doc["beta"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed checkpoint: {exc}") from exc
    if params.n_v != partition.n_v:
        raise ValidationError("checkpoint sizes are inconsistent")
    return params, partition
