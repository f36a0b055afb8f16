"""Tests of the benchmark's dense reference and of its workload checks.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _model(n_sys, n_env, m, rng=None, std=0.3):
    rng = rng or np.random.default_rng(0)
    n = n_sys + n_env
    draw = lambda *shape: std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ref.Model(draw(n), draw(m), draw(n, m), 1.0, n_sys)


# ---------------------------------------------------------------------------
# reference: cases with known answers

def test_no_coupling_is_a_product_state():
    model = _model(3, 3, 4)
    model.w[:] = 0.0
    assert abs(ref.s2_bits(ref.reduced_density_matrix(model))) < 1e-12


def test_one_strong_hidden_unit_gives_one_bit():
    # psi ~ 2 cosh(J (s_0 + s_2)): aligned system spin 0 and environment
    # spin 0 dominate, a Bell pair up to e^{-2J} corrections.
    model = ref.Model(np.zeros(4), np.zeros(1), np.zeros((4, 1)), 1.0, n_sys=2)
    model.w[0, 0] = model.w[2, 0] = 6.0
    assert abs(ref.s2_bits(ref.reduced_density_matrix(model)) - 1.0) < 1e-6


def test_single_spin_field_gives_tanh():
    # psi(s) = exp(a s) on one system spin: <Z> = tanh(2a), <X> = 1/cosh(2a).
    a = 0.37
    model = ref.Model(np.array([a, 0.0]), np.zeros(1), np.zeros((2, 1)), 1.0, n_sys=1)
    rho = ref.reduced_density_matrix(model)
    assert abs(ref.pauli_expectation(rho, "Z") - math.tanh(2 * a)) < 1e-12
    assert abs(ref.pauli_expectation(rho, "X") - 1 / math.cosh(2 * a)) < 1e-12
    assert abs(ref.pauli_expectation(rho, "Y")) < 1e-12


def test_pauli_expectation_matches_explicit_matrices():
    paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
              "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    rho = ref.reduced_density_matrix(_model(3, 2, 3))
    for letters in ("XYZ", "YIY", "ZZI", "IXI"):
        mat = np.array([[1.0]])
        for c in letters:
            mat = np.kron(mat, paulis[c])
        assert abs(ref.pauli_expectation(rho, letters) - np.trace(rho @ mat).real) < 1e-12


def test_chunked_enumeration_matches_one_block(monkeypatch):
    model = _model(4, 5, 3)
    whole = ref.log_amplitude_matrix(model)
    monkeypatch.setattr(ref, "CHUNK_ROWS", 64)
    assert np.allclose(ref.log_amplitude_matrix(model), whole, atol=1e-12)


def test_packing_round_trip():
    model = _model(2, 1, 2)
    again = model.with_packed(model.packed())
    assert np.array_equal(again.w, model.w) and np.array_equal(again.b, model.b)


# ---------------------------------------------------------------------------
# workload checks pass on real outputs and fail on corrupted ones

def _corrupt_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _shift_checkpoint(path: Path, delta=1e-3) -> None:
    def edit(doc):
        doc["w_re"][0][0] += delta
    _corrupt_json(path, edit)


@pytest.fixture
def workdir(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_paper_sweep_check(workdir):
    wl = workloads.PaperSweep(seed=3, workdir=workdir)
    wl.setup()
    rnd = wl.run_round(0)
    assert rnd.failed == 0 and rnd.epochs == 600
    assert wl.check(rnd) == []
    seed_dir = rnd.outdir / "seed_01"
    _corrupt_json(seed_dir / "report.json",
                  lambda doc: doc["final_residuals"].update(
                      {k: v + 1e-6 for k, v in doc["final_residuals"].items()}))
    assert any("seed_01" in p and "residual" in p for p in wl.check(rnd))
    # an untrained (zero) model misses the constraints
    _corrupt_json(rnd.outdir / "seed_00" / "checkpoint.json",
                  lambda doc: [doc[k].__setitem__(slice(None), np.zeros(np.shape(doc[k])).tolist())
                               for k in ("a_re", "a_im", "b_re", "b_im", "w_re", "w_im")])
    assert any("dense total residual" in p for p in wl.check(rnd))
    # a trace whose first epoch already had more entropy than the result
    trace = rnd.outdir / "seed_01" / "trace.jsonl"
    lines = trace.read_text().splitlines()
    first = json.loads(lines[0])
    first["entropy_bits"] = 5.0
    trace.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    assert any("not above epoch-0 entropy" in p for p in wl.check(rnd))


def test_exact_enum_check(workdir, monkeypatch):
    wl = workloads.ExactEnum(seed=5, workdir=workdir)
    monkeypatch.setattr(wl, "target", {**wl.target, "n_sys": 3, "n_env_target": 2})
    monkeypatch.setattr(wl, "train", {**wl.train, "n_env_model": 3, "m": 3,
                                      "optimizer.epochs": 4})
    wl.setup()
    rnd = wl.run_round(0)
    assert rnd.failed == 0 and rnd.epochs == 4
    assert wl.check(rnd) == []
    _shift_checkpoint(rnd.outdir / "checkpoint.json")
    problems = " ".join(wl.check(rnd))
    assert "residual" in problems and "s2_bits_exact" in problems


def test_exact_enum_gradient_check_catches_a_wrong_gradient(workdir, monkeypatch):
    wl = workloads.ExactEnum(seed=6, workdir=workdir)
    monkeypatch.setattr(wl, "target", {**wl.target, "n_sys": 2, "n_env_target": 1})
    monkeypatch.setattr(wl, "train", {**wl.train, "n_env_model": 1, "m": 2,
                                      "optimizer.epochs": 2})
    wl.setup()
    rnd = wl.run_round(0)
    assert wl.check(rnd) == []
    exact = workloads.optimizer.exact_cost_and_grad

    def skewed(*args, **kwargs):
        cost, grad = exact(*args, **kwargs)
        grad = grad.copy()
        grad[0] *= 1.001
        return cost, grad

    monkeypatch.setattr(workloads.optimizer, "exact_cost_and_grad", skewed)
    assert any("finite-difference" in p for p in wl.check(rnd))


def test_wide_sampled_check(workdir, monkeypatch):
    wl = workloads.WideSampled(seed=2, workdir=workdir)
    for attr, value in (("n_sys", 3), ("n_env", 3), ("m", 4), ("target_qubits", 5),
                        ("n_samples", 2048), ("epochs", 4)):
        monkeypatch.setattr(wl, attr, value)
    wl.setup()
    rnd = wl.run_round(0)
    assert rnd.failed == 0 and rnd.epochs == 4
    assert wl.check(rnd) == []
    report = rnd.outdir / "report.json"
    doc = json.loads(report.read_text())
    first = next(iter(doc["observables"]))
    est = doc["observables"][first]
    est["value"] += 10 * est["std_error"] + 1e-3
    doc["s2_bits"] = 4.0
    report.write_text(json.dumps(doc))
    problems = " ".join(wl.check(rnd))
    assert f"sampled <{first}>" in problems and "above the bound" in problems
    # parameters of the initial state: no entropy gained by training
    p = wl.initial
    workloads.rbm.save_checkpoint(p, wl.partition, rnd.outdir / "checkpoint.json")
    assert any("not above the initial" in x for x in wl.check(rnd))
