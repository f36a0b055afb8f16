"""Independent dense reference for checking reconstructions.

Everything here is plain numpy written against the checkpoint's JSON
format and the package's documented conventions; nothing is imported from
`rbmqst`, so a fault in the package's maths cannot hide in its own check.

Conventions (README of the package): spin +1 is bit 0, qubit 0 is the most
significant bit, the amplitude is

    psi(s) = exp(beta a.s) prod_j 2 cosh(beta (b_j + sum_i W_ij s_i)),

the first n_sys visible spins are the system, and the packed real
coordinates are Re a, Im a, Re b, Im b, Re W, Im W (row-major).
"""

import json
import math

import numpy as np

# Rows of (system block x environment) configurations evaluated at once;
# bounds the transient theta table to CHUNK_ROWS * m complex numbers.
CHUNK_ROWS = 1 << 15


class Model:
    """RBM parameters as read from a checkpoint file."""

    def __init__(self, a, b, w, beta, n_sys):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.w = np.asarray(w, dtype=complex)
        self.beta = float(beta)
        self.n_sys = int(n_sys)
        self.n_env = self.a.size - self.n_sys

    @classmethod
    def from_checkpoint(cls, path) -> "Model":
        with open(path) as fh:
            doc = json.load(fh)
        cplx = lambda key: np.asarray(doc[key + "_re"], float) + 1j * np.asarray(doc[key + "_im"], float)
        model = cls(cplx("a"), cplx("b"), cplx("w"), doc["beta"], doc["n_sys"])
        if model.n_env != int(doc["n_env"]) or model.w.shape != (model.a.size, model.b.size):
            raise ValueError(f"{path}: inconsistent checkpoint sizes")
        return model

    def packed(self) -> np.ndarray:
        return np.concatenate([self.a.real, self.a.imag, self.b.real, self.b.imag,
                               self.w.real.ravel(), self.w.imag.ravel()])

    def with_packed(self, x) -> "Model":
        n, m = self.a.size, self.b.size
        parts = np.split(np.asarray(x, float), np.cumsum([n, n, m, m, n * m]))
        return Model(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3],
                     (parts[4] + 1j * parts[5]).reshape(n, m), self.beta, self.n_sys)


def spins(n: int) -> np.ndarray:
    """All 2^n configurations; row k has basis index k (qubit 0 = MSB, +1 = bit 0)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def _log_2cosh(z: np.ndarray) -> np.ndarray:
    # 2 cosh z = e^{sz} (1 + e^{-2sz}) with s the sign of Re z, so the
    # exponential stays bounded by 1 in modulus.
    s = np.sign(z.real) + (z.real == 0)
    return s * z + np.log1p(np.exp(-2.0 * s * z))


def log_amplitude_matrix(model: Model) -> np.ndarray:
    """log psi arranged as (2^n_sys, 2^n_env), system index as the row.

    theta splits into a system and an environment part, so each chunk of
    system rows is a broadcast sum instead of a full configuration matmul.
    """
    ns, ne = model.n_sys, model.n_env
    s_sys, s_env = spins(ns), spins(ne)
    th_sys = model.beta * (s_sys @ model.w[:ns] + model.b)
    th_env = model.beta * (s_env @ model.w[ns:])
    lin_sys = model.beta * (s_sys @ model.a[:ns])
    lin_env = model.beta * (s_env @ model.a[ns:])
    out = np.empty((2**ns, 2**ne), dtype=complex)
    step = max(1, CHUNK_ROWS // 2**ne)
    for lo in range(0, 2**ns, step):
        theta = th_sys[lo:lo + step, None, :] + th_env[None, :, :]
        out[lo:lo + step] = (lin_sys[lo:lo + step, None] + lin_env[None, :]
                             + _log_2cosh(theta).sum(axis=2))
    return out


def reduced_density_matrix(model: Model) -> np.ndarray:
    """rho_sys = V V^dagger / Tr, V the amplitude matrix (environment traced out)."""
    log_v = log_amplitude_matrix(model)
    v = np.exp(log_v - log_v.real.max())
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def pauli_expectation(rho: np.ndarray, letters: str) -> float:
    """Tr(rho P) from P|x> = c(x)|x xor f>, without building P."""
    n = len(letters)
    x = np.arange(2**n)
    flip = 0
    coeff = np.ones(2**n, dtype=complex)
    for q, letter in enumerate(letters):
        bit = (x >> (n - 1 - q)) & 1
        sign = 1.0 - 2.0 * bit
        if letter in "XY":
            flip |= 1 << (n - 1 - q)
        if letter == "Z":
            coeff *= sign
        elif letter == "Y":
            coeff *= 1j * sign
        elif letter not in "IX":
            raise ValueError(f"bad Pauli letter {letter!r}")
    # <x|rho P|x> = c(x) rho[x, x xor f]
    return float(np.real(np.sum(coeff * rho[x, x ^ flip])))


def s2_bits(rho: np.ndarray) -> float:
    """Second Renyi entropy -log2 Tr rho^2 (rho Hermitian, unit trace)."""
    return -math.log2(float(np.sum(np.abs(rho) ** 2)))


def penalty_cost(model: Model, observables, targets, xis) -> float:
    """C = -S2 + sum_i xi_i (<O_i> - target_i)^2, entropy in bits."""
    rho = reduced_density_matrix(model)
    res = np.array([pauli_expectation(rho, o) for o in observables]) - np.asarray(targets)
    return -s2_bits(rho) + float(np.asarray(xis) @ res**2)


def central_differences(fn, model: Model, h: float) -> np.ndarray:
    """d fn / d x per packed real coordinate, by central differences."""
    x0 = model.packed()
    grad = np.empty(x0.size)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(model.with_packed(xp)) - fn(model.with_packed(xm))) / (2.0 * h)
    return grad
