import json

import numpy as np
import pytest

from rbmqst.cli import load_spec, main
from rbmqst.errors import NumericalError, ValidationError
from rbmqst.optimizer import OptimizerConfig, XiSchedule
from rbmqst.runner import (
    OUTPUT_ROOT_ENV,
    ExperimentSpec,
    build_constraints,
    cmd_bench_sampler,
    cmd_eval,
    cmd_gen_target,
    cmd_gradcheck,
    cmd_train,
    load_target,
    resolve_outdir,
)
from rbmqst.samplers import SamplerConfig


def small_spec(**kwargs):
    base = dict(
        n_sys=2, n_env_target=1, n_env_model=1, m=1,
        observable_count=2, observable_seed=7, layers=2, circuit_seed=5,
        sampler=SamplerConfig(n_samples=256, burn_in=64, n_chains=4, seed=1),
        optimizer=OptimizerConfig(epochs=6, exact_sum=True, seed=0),
        xi=XiSchedule(),
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# spec plumbing

def test_spec_roundtrip():
    spec = small_spec(sweep=3, outdir="abc")
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert isinstance(again.sampler, SamplerConfig)
    assert isinstance(again.optimizer, OptimizerConfig)
    assert isinstance(again.xi, XiSchedule)


def test_spec_validation():
    with pytest.raises(ValidationError):
        ExperimentSpec(sweep=0)
    with pytest.raises(ValidationError):
        ExperimentSpec(m=0)
    with pytest.raises(ValidationError):
        ExperimentSpec(n_sys=10, n_env_target=10)  # above dense cap
    with pytest.raises(ValidationError):
        ExperimentSpec.from_dict({"no_such_field": 1})


def test_resolve_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_outdir("rel") == tmp_path / "rel"
    assert resolve_outdir(str(tmp_path / "abs")) == tmp_path / "abs"
    assert resolve_outdir(small_spec(outdir="runs/x")) == tmp_path / "runs" / "x"


def test_load_spec_overrides(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"n_sys": 2, "n_env_target": 1, "n_env_model": 1}))
    spec = load_spec(cfg, ["optimizer.epochs=5", "optimizer.exact_sum=true",
                           "sampler.proposal=Uniform", "sweep=2", "outdir=foo"])
    assert spec.optimizer.epochs == 5
    assert spec.optimizer.exact_sum is True
    assert spec.sampler.proposal == "Uniform"  # unquoted string falls back verbatim
    assert spec.sweep == 2
    assert spec.outdir == "foo"
    with pytest.raises(ValidationError):
        load_spec(None, ["novalue"])
    with pytest.raises(ValidationError):
        load_spec(None, ["optimizer.epochs.deep=1"])  # cannot descend into an int


# ---------------------------------------------------------------------------
# gen-target

def test_gen_target_schema_and_determinism(tmp_path):
    spec = small_spec()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    doc = cmd_gen_target(spec, d1)
    cmd_gen_target(spec, d2)
    assert set(doc) == {"system_qubits", "env_qubits", "circuit_seed", "layers",
                        "observables", "exact_entropy_s2_bits"}
    assert doc["system_qubits"] == 2
    assert len(doc["observables"]) == 2
    for entry in doc["observables"]:
        assert -1.0 <= entry["target"] <= 1.0
    assert 0.0 <= doc["exact_entropy_s2_bits"] <= 2.0
    assert (d1 / "target.json").read_bytes() == (d2 / "target.json").read_bytes()
    assert (d1 / "spec.json").exists()


def test_load_target_and_constraints(tmp_path):
    doc = cmd_gen_target(small_spec(), tmp_path)
    loaded = load_target(tmp_path / "target.json")
    assert loaded["observables"] == doc["observables"]
    cs = build_constraints(loaded, xi_init=0.25)
    assert len(cs) == 2
    assert all(c.xi == 0.25 for c in cs)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"observables": [{"pauli": "ZZ"}]}))
    with pytest.raises(ValidationError):
        load_target(bad)


# ---------------------------------------------------------------------------
# train

def test_train_single_run_outputs(tmp_path):
    report = cmd_train(small_spec(), outdir=tmp_path)
    for name in ("target.json", "spec.json", "trace.jsonl", "checkpoint.json",
                 "curves.csv", "report.json"):
        assert (tmp_path / name).exists(), name
    assert report["status"] == "ok"
    assert report["epochs_run"] == 6
    assert set(report["final_residuals"]) == set(report["sampled_residuals"])
    assert set(report["sampled_std_errors"]) == set(report["sampled_residuals"])
    assert all(se > 0.0 for se in report["sampled_std_errors"].values())
    assert report["s2_std_error_sampled"] > 0.0
    assert report["s2_bits_exact"] is not None
    assert report["entropy_bound_bits"] == 1.0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert rec["epoch"] == 0 and "cost" in rec and "residuals" in rec
    header = (tmp_path / "curves.csv").read_text().splitlines()[0]
    assert header == "epoch,cost,entropy_bits,total_residual"


def test_train_byte_determinism(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    cmd_train(small_spec(), outdir=d1)
    cmd_train(small_spec(), outdir=d2)
    for name in ("trace.jsonl", "checkpoint.json", "curves.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_train_sweep_layout(tmp_path):
    report = cmd_train(small_spec(sweep=3), outdir=tmp_path)
    assert set(report) == {"sweep", "per_seed", "median_final_cost",
                           "median_epoch1_cost", "all_completed"}
    assert report["sweep"] == 3
    assert len(report["per_seed"]) == 3
    assert report["all_completed"]
    for s in range(3):
        d = tmp_path / f"seed_{s:02d}"
        assert (d / "checkpoint.json").exists()
        assert (d / "trace.jsonl").exists()
    assert (tmp_path / "curves.csv").exists()  # median curves
    assert np.isfinite(report["median_final_cost"])
    # distinct init seeds give distinct runs
    c0 = (tmp_path / "seed_00" / "checkpoint.json").read_bytes()
    c1 = (tmp_path / "seed_01" / "checkpoint.json").read_bytes()
    assert c0 != c1


def test_train_with_existing_target(tmp_path):
    gen_dir = tmp_path / "gen"
    cmd_gen_target(small_spec(), gen_dir)
    run_dir = tmp_path / "run"
    report = cmd_train(small_spec(), target_path=gen_dir / "target.json", outdir=run_dir)
    assert report["status"] == "ok"
    assert (run_dir / "target.json").read_bytes() == (gen_dir / "target.json").read_bytes()


# ---------------------------------------------------------------------------
# eval and gradcheck

def test_eval_report(tmp_path):
    cmd_train(small_spec(), outdir=tmp_path)
    report = cmd_eval(tmp_path / "checkpoint.json", tmp_path / "target.json",
                      outdir=tmp_path / "eval")
    assert report["mode"] == "exact"
    assert set(report) == {"mode", "final_residuals", "total_residual", "s2_bits",
                           "entropy_bound_bits", "within_entropy_bound",
                           "target_exact_entropy_s2_bits"}
    assert report["within_entropy_bound"]
    assert (tmp_path / "eval" / "report.json").exists()


def test_eval_system_size_mismatch(tmp_path):
    cmd_train(small_spec(), outdir=tmp_path / "run")
    cmd_gen_target(small_spec(n_sys=3, observable_count=3), tmp_path / "other")
    with pytest.raises(ValidationError):
        cmd_eval(tmp_path / "run" / "checkpoint.json", tmp_path / "other" / "target.json")


def test_gradcheck_report():
    report = cmd_gradcheck(sizes=(1, 1, 1), seed=3)
    assert report["pass"]
    assert set(report) == {"pass", "max_rel_err", "worst_coordinate", "abs_err_at_worst",
                           "sizes", "seed", "h", "n_coordinates"}
    assert report["n_coordinates"] == 2 * (2 + 1 + 2)
    assert report["max_rel_err"] <= 1e-5


def test_bench_sampler(tmp_path):
    spec = small_spec(sampler=SamplerConfig(n_samples=4000, burn_in=300, n_chains=8, seed=2))
    doc = cmd_bench_sampler(spec, tmp_path)
    assert (tmp_path / "bench.json").exists()
    assert doc["n_v"] == 3
    assert len(doc["proposals"]) == 3
    kinds = {d["proposal"] for d in doc["proposals"]}
    assert kinds == {"LocalFlip", "Uniform", "SurrogateTrotter"}
    for d in doc["proposals"]:
        assert 0.0 <= d["tv_distance_if_exact_available"] < 0.5


# ---------------------------------------------------------------------------
# CLI surface

def write_cfg(tmp_path, **extra):
    doc = {"n_sys": 2, "n_env_target": 1, "n_env_model": 1, "m": 1,
           "observable_count": 2, "layers": 2,
           "optimizer": {"epochs": 4, "exact_sum": True},
           "sampler": {"n_samples": 256, "burn_in": 64, "n_chains": 4}}
    doc.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_train_and_eval_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--target", str(out / "target.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exact"


def test_cli_trains_sampled_model_above_dense_cap(tmp_path, capsys):
    # sampled training never enumerates the 2^16 model configurations
    sets = ["n_sys=3", "n_env_target=2", "n_env_model=13", "m=2", "optimizer.epochs=2",
            "optimizer.samples_per_epoch=256", "sampler.n_samples=256"]
    argv = ["train", "--out", str(tmp_path / "run")]
    for entry in sets:
        argv += ["--set", entry]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["s2_bits_exact"] is None
    assert report["final_residuals"] == report["sampled_residuals"]
    assert all(np.isfinite(r) for r in report["sampled_residuals"].values())
    assert all(np.isfinite(se) for se in report["sampled_std_errors"].values())
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                 "--target", str(tmp_path / "run" / "target.json")]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "sampled"
    # the exact sum still enumerates, so its cap still applies
    assert main(argv + ["--set", "optimizer.exact_sum=true"]) == 2


def test_cli_gradcheck_prints_pass(capsys):
    assert main(["gradcheck", "--sizes", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")


def test_cli_exit_code_validation(capsys):
    assert main(["train", "--set", "sweep=0"]) == 2
    assert "validation error" in capsys.readouterr().err
    assert main(["gradcheck", "--sizes", "2,1"]) == 2
    assert main(["gradcheck", "--sizes", "a,b,c"]) == 2


def test_cli_exit_code_numerical(monkeypatch, capsys):
    import rbmqst.cli as cli
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda *a, **k: (_ for _ in ()).throw(
        NumericalError("synthetic failure")))
    assert main(["gradcheck"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_exit_code_io(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                 "--target", str(tmp_path / "nope2.json")]) == 4
    assert "i/o error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 4


def test_output_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = write_cfg(tmp_path, outdir="nested/run")
    assert main(["gen-target", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "nested" / "run" / "target.json").exists()
