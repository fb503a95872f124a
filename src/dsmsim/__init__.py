"""Direct state measurement simulation under preparation and readout noise.

Simulates two quantum-controlled measurement configurations (C1/C2) for
pure and mixed states, with Gaussian amplitude noise on preparation,
detector bias on postselection, finite-copy Monte Carlo sampling, and
Fisher-information analysis of the attainable precision.
"""

from .errors import (
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
from .montecarlo import ExperimentPoint, RunResult, run_repetitions
from .noise import (
    noisy_ghz_circuit,
    perturb_pure_state,
    sample_kappas,
    white_noise_channel,
)
from .pure_protocol import reconstruct_pure
from .states import (
    DensityMatrix,
    PureState,
    conjugate_coefficients,
    port_weights,
    random_density_matrix,
    standard_state,
)

__version__ = "0.1.0"
