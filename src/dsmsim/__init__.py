"""Direct state measurement simulation under preparation and readout noise.

Simulates two quantum-controlled measurement configurations (C1/C2) for
pure and mixed states, with Gaussian amplitude noise on preparation,
detector bias on postselection, finite-copy Monte Carlo sampling, and
Fisher-information analysis of the attainable precision.
"""

from .errors import (
    ChannelError,
    ConfigError,
    DegenerateDataError,
    DegenerateNoiseError,
    ParameterError,
    PhysicsError,
)
from .experiments import ExperimentConfig, load_config, parse_config, run_figure
from .metrics import (
    QfiReport,
    norm_const_samples,
    qfi_noisy,
    qfi_pure,
    trace_distance_mixed,
    trace_distance_pure,
)
from .mixed_protocol import (
    LambdaEstimate,
    ProbeConditional,
    RawReconstruction,
    lambda_from_pauli,
    physicalize,
    probe_conditional_c1,
    probe_conditional_c2,
    reconstruct_mixed_c1,
    reconstruct_mixed_c2,
)
from .montecarlo import (
    ExperimentPoint,
    RunResult,
    allocate_copies,
    build_outcome_distribution,
    enumerate_settings,
    run_repetitions,
)
from .noise import (
    KrausChannel,
    apply_kraus_channel,
    depolarizing_kraus,
    noisy_ghz_circuit,
    perturb_pure_state,
    sample_kappas,
    white_noise_channel,
)
from .pure_protocol import (
    PauliProbabilities,
    ProbeState,
    pauli_probabilities,
    probe_state_c1,
    probe_state_c2,
    reconstruct_pure,
)
from .sampling import OutcomeDistribution, sample_counts
from .states import (
    ConjugateState,
    DensityMatrix,
    PureState,
    conjugate_family,
    make_conjugate_state,
    random_density_matrix,
    standard_state,
)

__version__ = "0.1.0"
