"""Quantum state tomography with complex RBM wavefunctions and entropy
maximization under observable constraints."""

from .errors import (
    DenseCapError,
    EstimationError,
    InfeasibleTargetsError,
    NonCommutingObservablesError,
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
    trace_power,
    validate_density_matrix,
)
from .rbm import (
    Partition,
    RbmParams,
    amplitude_matrix,
    contract,
    evaluate,
    exact_density_matrix,
    init_params,
    load_checkpoint,
    log_amplitude,
    log_amplitudes,
    pack_parameters,
    save_checkpoint,
    unpack_parameters,
    zero_params,
)
from .samplers import (
    PROPOSALS,
    SampleSet,
    SamplerConfig,
    SurrogateParams,
    derive_seed,
    exact_target_distribution,
    fit_surrogate,
    integrated_autocorr_time,
    mh_sample,
    sample_replicas,
    tv_distance,
)
from .estimators import (
    EstimateResult,
    SwapResult,
    estimate_observable,
    estimate_renyi_n,
    estimate_swap,
    required_samples,
    vne_coefficients,
    vne_from_powers,
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
