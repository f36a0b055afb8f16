import json

import numpy as np
import pytest

from rbmqst.cli import load_spec, main
from rbmqst.errors import NumericalError, ValidationError
from rbmqst.optimizer import OptimizerConfig, XiSchedule
from rbmqst.rbm import Partition, init_params, save_checkpoint
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
from rbmqst.samplers import PROPOSALS, SamplerConfig


# report.json fields that describe the training run, not the trained model
RUN_FIELDS = {"wall_clock_per_epoch_s", "epochs_run", "status", "message", "clip_events",
              "entropy_floor_events"}


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
    # counts and seeds are integers: no fraction, no integral float, no bool
    for name, value in (("n_sys", 2.5), ("m", 2.0), ("sweep", True), ("circuit_seed", 1.5)):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            ExperimentSpec(**{name: value})
    # a config section is an object
    for key in ("sampler", "optimizer", "xi"):
        for value in (3, None, [], "x"):
            with pytest.raises(ValidationError, match=f"{key} must be an object"):
                ExperimentSpec.from_dict({key: value})


def test_cli_refuses_unknown_proposal_before_training(tmp_path, monkeypatch, capsys):
    import rbmqst.runner as runner

    def no_training(*args, **kwargs):
        raise AssertionError("trained with an unknown proposal")

    monkeypatch.setattr(runner, "train", no_training)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["train", "--set", "sampler.proposal=SurrogateTrotter"]) == 2
    assert f"proposal must be one of {PROPOSALS}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_refuses_an_optimizer_method_before_training(tmp_path, monkeypatch, capsys):
    # Adam is the only update rule, so a spec that names one (as spec.json
    # files written with OptimizerConfig.method do) is refused
    import rbmqst.runner as runner

    def no_training(*args, **kwargs):
        raise AssertionError("trained with a spec naming an optimizer method")

    monkeypatch.setattr(runner, "train", no_training)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, optimizer={"epochs": 4, "method": "adaptive-moment"})
    assert main(["train", "--config", str(cfg)]) == 2
    assert main(["train", "--set", "optimizer.method=adaptive-moment"]) == 2
    assert "unexpected keyword argument 'method'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_target_refuses_a_dense_matrix_above_the_cap_before_building_it(
        tmp_path, monkeypatch, capsys):
    import rbmqst.runner as runner

    def no_circuit(*args, **kwargs):
        raise AssertionError("built the target state above the matrix cap")

    monkeypatch.setattr(runner, "random_circuit_state", no_circuit)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["gen-target", "--set", "n_sys=14", "--set", "n_env_target=0"]) == 2
    assert "exceeds dense cap 12" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    assert isinstance(report["entropy_floor_events"], int)
    assert report["entropy_floor_events"] >= 0
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


def test_sweep_members_draw_their_own_evaluation_samples(tmp_path, monkeypatch):
    import rbmqst.runner as runner
    seeds = []
    original = runner.sample_replicas

    def recorded(params, cfg, k, *args):
        seeds.append(cfg.seed)
        return original(params, cfg, k, *args)

    monkeypatch.setattr(runner, "sample_replicas", recorded)
    cmd_train(small_spec(sweep=2, optimizer=OptimizerConfig(epochs=2, exact_sum=True, seed=0)),
              outdir=tmp_path)
    assert len(seeds) == 2 and seeds[0] != seeds[1]
    # the median curves equal those rebuilt from the members' trace files
    rows = []
    for s in range(2):
        with open(tmp_path / f"seed_{s:02d}" / "trace.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        rows.append([(r["cost"], r["entropy_bits"], sum(abs(v) for v in r["residuals"].values()))
                     for r in records])
    lines = (tmp_path / "curves.csv").read_text().splitlines()[1:]
    assert lines == [f"{e},{','.join(map(repr, np.median(cols, axis=0).tolist()))}"
                     for e, cols in enumerate(np.array(rows).transpose(1, 0, 2))]


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
    assert report["s2_bits_exact"] is not None
    assert set(report) == {"final_residuals", "total_residual", "sampled_residuals",
                           "sampled_std_errors", "s2_bits_sampled", "s2_std_error_sampled",
                           "s2_bits_exact", "entropy_bound_bits", "within_entropy_bound",
                           "target_exact_entropy_s2_bits"}
    assert report["within_entropy_bound"]
    assert (tmp_path / "eval" / "report.json").exists()


def test_eval_holds_the_evaluation_of_train_report(tmp_path):
    cmd_train(small_spec(), outdir=tmp_path)
    trained = json.loads((tmp_path / "report.json").read_text())
    report = cmd_eval(tmp_path / "checkpoint.json", tmp_path / "target.json")
    assert set(trained) - RUN_FIELDS <= set(report)
    for key in ("final_residuals", "total_residual", "s2_bits_exact"):
        assert report[key] == trained[key], key


def test_final_sampled_evaluation_evaluates_each_array_once(monkeypatch):
    # 2 streams + 2 permuted arrays + one connected array per off-diagonal
    # constraint; the values equal the public estimators on the same streams
    import rbmqst.estimators as estimators
    from rbmqst.oracle import PauliString
    from rbmqst.optimizer import Constraint, ConstraintSet
    from rbmqst.rbm import Partition, init_params
    from rbmqst.runner import _evaluate
    from rbmqst.samplers import sample_replicas

    constraints = ConstraintSet(entries=(Constraint(PauliString("ZZ"), 0.2, 1.0),
                                         Constraint(PauliString("XI"), 0.1, 1.0),
                                         Constraint(PauliString("YZ"), -0.1, 1.0)))
    partition = Partition(n_sys=2, n_env=1)
    params = init_params(3, 2, np.random.default_rng(5), std=0.4)
    sampler = SamplerConfig(n_samples=256, burn_in=16, n_chains=4, seed=3)
    calls = []
    original = estimators.evaluate

    def counted(p, configs):
        calls.append(1)
        return original(p, configs)

    monkeypatch.setattr(estimators, "evaluate", counted)
    report = _evaluate(params, partition, constraints, sampler)
    assert len(calls) == 4 + 2
    residuals, std_errors = report["sampled_residuals"], report["sampled_std_errors"]
    s2, s2_se = report["s2_bits_sampled"], report["s2_std_error_sampled"]
    monkeypatch.setattr(estimators, "evaluate", original)
    pair = sample_replicas(params, sampler, 2)
    for c in constraints:
        est = estimators.estimate_observable(params, partition, c.obs, pair[0])
        assert residuals[c.obs.identifier] == pytest.approx(est.value - c.target, rel=1e-12)
        assert std_errors[c.obs.identifier] == pytest.approx(est.std_error, rel=1e-12)
    swap = estimators.estimate_swap(params, partition, pair)
    assert (s2, s2_se) == pytest.approx((swap.s2_bits, swap.s2_std_error), rel=1e-12)


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
    assert len(doc["proposals"]) == 2
    kinds = {d["proposal"] for d in doc["proposals"]}
    assert kinds == {"LocalFlip", "Uniform"}
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
    assert json.loads(capsys.readouterr().out)["s2_bits_exact"] is not None


@pytest.mark.parametrize("proposal", PROPOSALS)
def test_cli_trains_sampled_with_every_proposal(tmp_path, proposal):
    # the report's final evaluation samples with the run's sampler settings
    sets = ["n_sys=2", "n_env_target=1", "n_env_model=1", "m=1", "optimizer.epochs=3",
            "optimizer.samples_per_epoch=64", "sampler.n_samples=64", "sampler.burn_in=16",
            "sampler.n_chains=4", f"sampler.proposal={proposal}"]
    argv = ["train", "--out", str(tmp_path / "run")]
    for entry in sets:
        argv += ["--set", entry]
    assert main(argv) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["epochs_run"] == 3
    assert all(se > 0.0 for se in report["sampled_std_errors"].values())
    record = json.loads((tmp_path / "run" / "trace.jsonl").read_text().splitlines()[0])
    assert 0.0 < record["acceptance_rate"] <= 1.0


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
    assert json.loads(capsys.readouterr().out)["s2_bits_exact"] is None
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


@pytest.mark.parametrize("command,name,key,value", [
    ("train", "target.json", "target", "high"),
    ("train", "target.json", "system_qubits", "two"),
    ("eval", "target.json", "target", "high"),
    ("eval", "target.json", "system_qubits", "two"),
    ("eval", "checkpoint.json", "beta", "one"),
    # sizes are not truncated: int() read 2.7 as 2 and true as 1
    ("train", "target.json", "system_qubits", 2.7),
    ("train", "target.json", "system_qubits", True),
    ("eval", "target.json", "system_qubits", 2.7),
    ("eval", "checkpoint.json", "n_sys", 2.9),
    ("eval", "checkpoint.json", "n_env", True),
    # spec fields given with --set: counts are integers, sections are objects
    ("gen-target", "--set", "n_sys", "2.5"),
    ("train", "--set", "optimizer.epochs", "2.5"),
    ("train", "--set", "m", "2.0"),
    ("train", "--set", "sweep", "true"),
    ("train", "--set", "xi.block", "2.5"),
    ("train", "--set", "sampler.n_chains", "2.5"),
    ("train", "--set", "optimizer", "3"),
    ("train", "--set", "sampler", "null"),
])
def test_cli_malformed_values_exit_validation(tmp_path, capsys, command, name, key, value):
    cfg = write_cfg(tmp_path)
    assert main(["gen-target", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    save_checkpoint(init_params(3, 1, np.random.default_rng(0)), Partition(2, 1),
                    tmp_path / "checkpoint.json")
    capsys.readouterr()
    if name == "--set":
        argv = [command, "--config", str(cfg), "--set", f"{key}={value}",
                "--out", str(tmp_path / "run")]
    else:
        path = tmp_path / name
        doc = json.loads(path.read_text())
        (doc["observables"][0] if key == "target" else doc)[key] = value
        path.write_text(json.dumps(doc))
        if command == "train":
            argv = ["train", "--config", str(cfg), "--target", str(tmp_path / "target.json"),
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--checkpoint", str(tmp_path / "checkpoint.json"),
                    "--target", str(tmp_path / "target.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    if name == "--set":  # refused while reading the spec, naming the field
        assert f"{key.split('.')[-1]} must be" in err
        assert not (tmp_path / "run").exists()


def test_output_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = write_cfg(tmp_path, outdir="nested/run")
    assert main(["gen-target", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "nested" / "run" / "target.json").exists()
