"""Span tracing of the package's layers from outside the package.

A wrapper replaces a function on the module that calls it (for example
`log_derivatives` inside `rbmqst.optimizer`) and records one span per call:
name, start, end, parent span, run id and thread, plus the counts taken
from the call's arguments and result. Spans stay in memory and are
written out when the run ends. A layer whose functions no longer exist is
reported as absent instead of failing the run.
"""

import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field

# layer -> functions to wrap, as (module, attribute) on the calling module.
LAYERS = {
    "samplers.mh": [("rbmqst.samplers", "mh_sample"), ("rbmqst.runner", "mh_sample")],
    "samplers.autocorr": [("rbmqst.samplers", "integrated_autocorr_time"),
                          ("rbmqst.estimators", "integrated_autocorr_time")],
    "estimators.series_error": [("rbmqst.estimators", "_series_error"),
                                ("rbmqst.optimizer", "_series_error")],
    "estimators.estimate": [("rbmqst.estimators", "estimate_observable"),
                            ("rbmqst.estimators", "estimate_swap"),
                            ("rbmqst.runner", "estimate_observable"),
                            ("rbmqst.runner", "estimate_swap")],
    "rbm.log_amplitudes": [("rbmqst.rbm", "log_amplitudes"),
                           ("rbmqst.estimators", "log_amplitudes"),
                           ("rbmqst.optimizer", "log_amplitudes"),
                           ("rbmqst.samplers", "log_amplitudes")],
    "rbm.log_derivatives": [("rbmqst.rbm", "log_derivatives"),
                            ("rbmqst.optimizer", "log_derivatives")],
    "optimizer.entropy_grad": [("rbmqst.optimizer", "renyi_value_and_grad"),
                               ("rbmqst.optimizer", "vne_value_and_grad")],
    "optimizer.observable_grad": [("rbmqst.optimizer", "_observable_value_and_grad")],
    "optimizer.update": [("rbmqst.optimizer", "train"), ("rbmqst.runner", "train")],
    "oracle.circuit": [("rbmqst.oracle", "random_circuit_state"),
                       ("rbmqst.runner", "random_circuit_state")],
    "oracle.dense": [("rbmqst.oracle", "partial_trace"),
                     ("rbmqst.oracle", "pauli_expectation_exact"),
                     ("rbmqst.oracle", "entropy_exact"),
                     ("rbmqst.runner", "partial_trace"),
                     ("rbmqst.runner", "pauli_expectation_exact"),
                     ("rbmqst.runner", "entropy_exact"),
                     ("rbmqst.runner", "exact_density_matrix")],
    "runner.io": [("rbmqst.runner", "_write_json"), ("rbmqst.runner", "_write_curves"),
                  ("rbmqst.runner", "load_target"), ("rbmqst.runner", "save_checkpoint"),
                  ("rbmqst.rbm", "save_checkpoint")],
    # The CLI refuses wide_sampled's shape, so there the benchmark assembles
    # the final report itself, in the runner's place.
    "runner.report": [("rbmqst.runner", "_report"), ("workloads", "WideSampled.report")],
}

# Root span the benchmark opens around each reconstruction; its self time
# is work no wrapper covers (CLI parsing, the benchmark's own glue).
ROOT = "reconstruction"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    run_id: str
    thread: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


def _rows(configs) -> int:
    shape = getattr(configs, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


def _count_log_amplitudes(args, kwargs, result):
    configs = args[1] if len(args) > 1 else kwargs.get("configs")
    return {"rows": _rows(configs)}


def _count_log_derivatives(args, kwargs, result):
    shape = getattr(result, "shape", (0, 0))
    return {"rows": int(shape[0]), "bytes": int(shape[0]) * int(shape[1]) * 16}


def _count_mh(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["config"]
    chain_len = math.ceil(cfg.n_samples / cfg.n_chains)
    kept = chain_len * cfg.thinning * cfg.n_chains
    return {
        "steps": cfg.burn_in + chain_len * cfg.thinning,
        "chain_steps": (cfg.burn_in + chain_len * cfg.thinning) * cfg.n_chains,
        "drawn": int(result.spins.shape[0]),
        "proposed": kept,
        "accepted": result.diagnostics["acceptance_rate"] * kept,
    }


COUNTERS = {
    "rbm.log_amplitudes": _count_log_amplitudes,
    "rbm.log_derivatives": _count_log_derivatives,
    "samplers.mh": _count_mh,
}


class Tracer:
    """Installs the wrappers and records spans while `run_id` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []
        self._main = None
        self.absent = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span | None:
        if self.run_id is None:
            return None
        stack = self._stack()
        # A worker thread's outermost span belongs to the span the
        # installing thread has open (the sweep's thread pool).
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        span = Span(next(self._ids), name, parent.sid if parent else None, self.run_id,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is not None:
            span.end = time.perf_counter()
            self._stack().pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if span is not None and counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self._main = self._stack()
        self.absent = []
        for name, targets in LAYERS.items():
            found = 0
            for mod_name, path in targets:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
                found += 1
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def self_times(self) -> dict:
        """Span id -> duration minus the part its child spans cover.

        Children on other threads may overlap each other, so the covered
        part is the union of the children's intervals.
        """
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        own = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for start, end in sorted(children.get(s.sid, ())):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            own[s.sid] = s.end - s.start - covered
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent_layers": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "run_id": s.run_id,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "self": own[s.sid], "counts": s.counts}) + "\n")


def _totals(tracer: Tracer, own: dict, run_ids: tuple):
    self_s, calls, counts = {}, {}, {}
    for s in tracer.spans:
        if s.run_id not in run_ids:
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.sid]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + value
    return self_s, calls, counts


def layer_metrics(tracer: Tracer, epochs: int, enumerated: int) -> dict:
    """Per-layer metrics, as name -> (value, unit).

    Per-epoch values come from the spans of the traced round ("round") and
    are divided by its epochs. oracle.* and runner.* are per run: set-up
    plus the traced round. `enumerated` is the number of configurations
    the training loop enumerated (exact sum); the sampler's draws are added
    to it as the base of rbm.rows_per_config.
    """
    own = tracer.self_times()
    self_s, calls, counts = _totals(tracer, own, ("round",))
    run_self_s, _, _ = _totals(tracer, own, ("setup", "round"))

    def per_epoch_ms(name):
        return 1e3 * self_s.get(name, 0.0) / epochs

    def count(name, key):
        return counts.get((name, key), 0)

    mh_s = self_s.get("samplers.mh", 0.0)
    rows = count("rbm.log_amplitudes", "rows") + count("rbm.log_derivatives", "rows")
    configs = enumerated + count("samplers.mh", "drawn")
    proposed = count("samplers.mh", "proposed")
    out = {
        "samplers.mh.calls": (calls.get("samplers.mh", 0) / epochs, "count"),
        "samplers.mh.steps": (count("samplers.mh", "steps") / epochs, "count"),
        "samplers.chain_steps_per_s": (count("samplers.mh", "chain_steps") / mh_s if mh_s else 0.0, "1/s"),
        "samplers.acceptance_rate": (count("samplers.mh", "accepted") / proposed if proposed else 0.0, "ratio"),
        "rbm.rows_per_config": (rows / configs if configs else 0.0, "ratio"),
        "rbm.log_derivatives.bytes": (count("rbm.log_derivatives", "bytes") / epochs, "bytes"),
    }
    for name in ("rbm.log_amplitudes", "rbm.log_derivatives"):
        out[f"{name}.calls"] = (calls.get(name, 0) / epochs, "count")
        out[f"{name}.rows"] = (count(name, "rows") / epochs, "count")
    for name in LAYERS:
        if name.startswith(("oracle.", "runner.")):
            out[f"{name}.self_ms"] = (1e3 * run_self_s.get(name, 0.0), "ms")
        else:
            out[f"{name}.self_ms"] = (per_epoch_ms(name), "ms")
    out["trace.unwrapped_ms"] = (per_epoch_ms(ROOT), "ms")
    out["trace.layer_sum_ms"] = (sum(per_epoch_ms(name) for name in LAYERS), "ms")
    return out
