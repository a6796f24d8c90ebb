"""Simulator for the conditional-rotation linear-system solver and its
hybrid variant with classically analyzed eigenvalue bits."""

from .errors import (
    CompileError,
    ConstraintError,
    DomainError,
    HhlError,
    ImpossibleOutcomeError,
    NotReducibleError,
    ValidationError,
)
from .noise import NoiseParams, survival_bound
from .problem import (
    HermitianProblem,
    SpectralData,
    build_a_lambda,
    classical_solution,
    load_problem,
    problem_from_dict,
)
from .qpe import build_qpe, run_qpea
from .qstate import (
    DensityMatrix,
    MeasurementHistogram,
    StateVector,
    fidelity_pure,
)
from .solvers import (
    AqeSpec,
    EigenEstimate,
    HHLOutcome,
    HybridPolicy,
    analyze_qpea,
    build_aqe,
    build_hhl_circuit,
    run_hybrid_hhl,
    run_original_hhl,
    run_original_hhl_batch,
    synthesize_reduced_aqe,
    reduced_encoding_equivalence_check,
)

__all__ = [
    "AqeSpec",
    "CompileError",
    "ConstraintError",
    "DensityMatrix",
    "DomainError",
    "EigenEstimate",
    "HHLOutcome",
    "HermitianProblem",
    "HhlError",
    "HybridPolicy",
    "ImpossibleOutcomeError",
    "MeasurementHistogram",
    "NoiseParams",
    "NotReducibleError",
    "SpectralData",
    "StateVector",
    "ValidationError",
    "analyze_qpea",
    "build_a_lambda",
    "build_aqe",
    "build_hhl_circuit",
    "build_qpe",
    "classical_solution",
    "fidelity_pure",
    "load_problem",
    "problem_from_dict",
    "run_hybrid_hhl",
    "run_original_hhl",
    "run_original_hhl_batch",
    "run_qpea",
    "survival_bound",
    "synthesize_reduced_aqe",
    "reduced_encoding_equivalence_check",
]

__version__ = "0.1.0"
