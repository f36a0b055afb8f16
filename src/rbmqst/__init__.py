"""Quantum state tomography with complex RBM wavefunctions and entropy
maximization under observable constraints."""

from .errors import (
    DenseCapError,
    EstimationError,
    InfeasibleTargetsError,
    NumericalError,
    RbmQstError,
    ValidationError,
)
from .oracle import (
    DENSE_CAP,
    CircuitSpec,
    PauliString,
    entropy_exact,
    gibbs_maxent_solve,
    partial_trace,
    pauli_expectation_exact,
    random_circuit_state,
    random_pauli_strings,
    trace_distance,
    validate_density_matrix,
)
from .rbm import (
    Partition,
    RbmParams,
    contract,
    enumerate_model,
    evaluate,
    exact_density_matrix,
    init_params,
    load_checkpoint,
    pack_parameters,
    save_checkpoint,
    unpack_parameters,
)
from .samplers import (
    PROPOSALS,
    SampleSet,
    SamplerConfig,
    derive_seed,
    integrated_autocorr_time,
    mh_sample,
    sample_replicas,
    tv_distance,
)
from .estimators import (
    EstimateResult,
    SwapResult,
    estimate_observable,
    estimate_swap,
    vne_coefficients,
)
from .optimizer import (
    Constraint,
    ConstraintSet,
    OptimizerConfig,
    TrainingTrace,
    XiSchedule,
    cost,
    exact_cost_and_grad,
    finite_difference_gradient,
    train,
)
from .runner import (
    ExperimentSpec,
    cmd_bench_sampler,
    cmd_eval,
    cmd_gen_target,
    cmd_gradcheck,
    cmd_train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
