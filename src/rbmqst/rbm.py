"""Complex-parameter RBM wavefunction over system + environment spins.

The (unnormalized) amplitude of a visible configuration sigma is

    psi(sigma) = exp(beta * sum_i a_i sigma_i)
                 * prod_j 2 cosh(beta * (b_j + sum_i W_ij sigma_i))

i.e. the hidden units are summed out analytically. Sign convention: the
exponent is +beta*(a.sigma + b.h + sigma.W.h). Only the enumeration of all
configurations (enumerate_model, up to DENSE_CAP spins) normalizes |psi|^2;
every other consumer works with ratios.

A configuration array is evaluated once into a Batch (configs, tanh theta,
log psi with theta_j = beta*(b_j + sum_i W_ij v_i)) in real arithmetic and
in cache-sized row blocks: with x = Re theta and y = Im theta from two real
matmuls, s = copysign(1, x), e = expm1(-2|x|), r = 1 + e, t = tan y and
p = r / (1 + t^2) = r cos^2 y,

    den = |1 + exp(-2 s theta)|^2 = e^2 + 4p
    Re log 2cosh theta = |x| + log(den) / 2
    Im log 2cosh theta = s (y - atan2(2pt, 2p - e))
    tanh theta = (-s e (2 + e) + 4i pt) / den,

the branch of s theta + Log(1 + exp(-2 s theta)) (2pt = r sin 2y, 2p - e =
1 + r cos 2y). No cos or sin is taken, and no term cancels: Re log 2cosh
theta is finite for every finite theta. Gradients never build
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

from .errors import NumericalError, ValidationError
from .oracle import check_cap
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


# ---------------------------------------------------------------------------
# amplitudes

def _re_log2cosh_terms(x: np.ndarray, y: np.ndarray):
    # Re log 2cosh(x + iy) = |x| + log(den) / 2 (module docstring), |x|, e, t, p, den
    ax = np.abs(x)
    e = np.expm1(np.multiply(-2.0, ax))
    t = np.tan(y)  # float64 np.tan is SIMD on x86, np.cos and np.sin are not
    q = np.add(1.0, np.square(t))
    p = np.divide(np.add(1.0, e), q)
    den = np.add(np.multiply(4.0, p, out=q), np.square(e), out=q)
    re = np.log(den)
    return np.add(np.multiply(0.5, re, out=re), ax, out=re), ax, e, t, p, den


def re_log2cosh(theta: np.ndarray) -> np.ndarray:
    """Per-unit Re log 2cosh theta (finite for every finite theta)."""
    return _re_log2cosh_terms(theta.real, theta.imag)[0]


def _log2cosh_tanh(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re and Im log 2cosh theta and tanh theta for theta = x + iy (module
    docstring); x, y and the temporaries are overwritten in place."""
    with np.errstate(divide="ignore", invalid="ignore"):
        re, ax, e, t, p, den = _re_log2cosh_terms(x, y)
        s = np.copysign(1.0, x, out=x)
        p *= 2.0
        sigma = np.multiply(p, t, out=t)  # r sin 2y
        d = np.subtract(p, e, out=p)  # 1 + r cos 2y >= 0
        # atan2 is odd in its first argument: s (y - atan2(sigma, d))
        im = np.multiply(s, np.subtract(y, np.arctan2(sigma, d, out=d), out=y), out=y)
        num = np.multiply(np.add(2.0, e, out=ax), e, out=ax)  # e (2 + e) <= 0
        tanh = np.empty(x.shape, dtype=complex)
        np.divide(np.copysign(num, s, out=num), den, out=tanh.real)
        np.divide(np.multiply(2.0, sigma, out=sigma), den, out=tanh.imag)
    return re, im, tanh


@dataclass(frozen=True, eq=False)
class Batch:
    """One evaluation of a configuration array (rows of +-1 spins)."""

    configs: np.ndarray  # float (N, n_v)
    tanh: np.ndarray  # complex (N, m), tanh theta
    log_psi: np.ndarray  # complex (N,)


# kernel elements per row block of evaluate: a block's temporaries stay in cache
BLOCK_ELEMENTS = 8192


def evaluate(params: RbmParams, configs: np.ndarray) -> Batch:
    """Evaluate log psi and tanh theta over rows of configs, theta once."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    if configs.shape[1] != params.n_v:
        raise ValidationError("configuration length does not match n_v")
    beta, n = params.beta, configs.shape[0]
    tanh = np.empty((n, params.m), dtype=complex)
    log_psi = np.empty(n, dtype=complex)
    rows = max(1, BLOCK_ELEMENTS // max(params.m, 1))
    for i in range(0, n, rows):
        v = configs[i:i + rows]
        x = beta * (v @ params.w.real + params.b.real)
        y = beta * (v @ params.w.imag + params.b.imag)
        re, im, tanh[i:i + rows] = _log2cosh_tanh(x, y)
        log_psi.real[i:i + rows] = beta * (v @ params.a.real) + re.sum(axis=1)
        log_psi.imag[i:i + rows] = beta * (v @ params.a.imag) + im.sum(axis=1)
    if not np.all(np.isfinite(log_psi)):
        raise NumericalError("non-finite log amplitude")
    return Batch(configs=configs, tanh=tanh, log_psi=log_psi)


def enumerate_model(params: RbmParams) -> tuple[Batch, np.ndarray]:
    """Every configuration evaluated (row k = basis index k) and the
    normalized |psi|^2 over them; DENSE_CAP is checked before enumerating."""
    check_cap(params.n_v)
    ev = evaluate(params, all_configs(params.n_v))
    p = np.exp(2.0 * (ev.log_psi.real - ev.log_psi.real.max()))
    return ev, p / p.sum()


def normalized_amplitudes(ev: Batch, p: np.ndarray, partition: Partition) -> np.ndarray:
    """Normalized amplitudes V = sqrt(p) exp(i Im log psi) of an enumeration
    as a 2^n_sys x 2^n_env matrix (system index = row): rho = V V^dagger."""
    v = np.sqrt(p) * np.exp(1j * ev.log_psi.imag)
    return v.reshape(2**partition.n_sys, 2**partition.n_env)


def exact_density_matrix(params: RbmParams, partition: Partition) -> np.ndarray:
    """System density matrix with the environment spins traced out, in Gram
    form V V^dagger (Hermitian PSD by construction)."""
    if partition.n_v != params.n_v:
        raise ValidationError("partition does not match parameter shape")
    v = normalized_amplitudes(*enumerate_model(params), partition)
    return v @ v.conj().T


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
    coefficients c over the batch's rows, with no (N, P) table: configs^T c and
    configs^T (c tanh) are one real matmul over the Re/Im columns of [c, c tanh]."""
    c = params.beta * np.asarray(c, dtype=complex)[:, None]
    ct = np.empty((c.shape[0], params.m + 1), dtype=complex)
    ct[:, :1] = c
    np.multiply(c, batch.tanh, out=ct[:, 1:])
    g = (batch.configs.T @ ct.view(float)).view(complex)
    blocks = (g[:, 0], batch.tanh.T @ c[:, 0], g[:, 1:].reshape(-1))
    return np.concatenate([part for block in blocks for part in (block.real, -block.imag)])


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed checkpoint: {exc}") from exc
    if params.n_v != partition.n_v:
        raise ValidationError("checkpoint sizes are inconsistent")
    return params, partition
