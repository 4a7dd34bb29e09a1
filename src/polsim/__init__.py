"""polsim: degree of polarization of two superposed, induced-coherent
signal beams, with erasable (rotation) and inerasable (idler transmission)
which-path marking, plus simulated tomography of the result."""

from .errors import (
    ConfigError,
    ConfigRangeError,
    IllPosedError,
    ParameterError,
    PolsimError,
    ZeroTraceError,
)
from .gedanken import (
    GedankenConfig,
    degree_of_polarization_gedanken,
    degree_of_polarization_gedanken_grid,
    detection_probability,
    extremal_probabilities,
    monte_carlo_detection,
)
from .tomography import (
    DEFAULT_SETTINGS,
    DetectorModel,
    FitDiagnostics,
    MeasurementSetting,
    TomographyRun,
    background_correct,
    expected_counts,
    expected_counts_grid,
    mle_reconstruct,
    read_counts_table,
    reconstruct_run,
    simulate_counts,
    write_counts_table,
)
from .zwm import (
    CoherenceMatrix,
    ImperfectionConfig,
    ZwmConfig,
    analytic_p_general,
    analytic_p_grid,
    analytic_p_special,
    beta,
    coherence_grid,
    coherence_matrix,
    degree_of_polarization,
    degree_of_polarization_grid,
    field_map,
    numeric_degree_of_polarization,
    signal_amplitudes,
    stokes_parameters,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
