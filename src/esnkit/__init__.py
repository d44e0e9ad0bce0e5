"""esnkit: build, analyze, and adapt echo state network reservoirs."""

from .adapt import (
    AdaptationResult,
    ResponseTable,
    build_response_table,
    match_signal,
    validate_and_combine,
)
from .benchmarks import benchmark, classification_benchmark, forecast_benchmark
from .errors import EsnKitError
from .esn import (
    EsnRun,
    forecast_free_run,
    run_teacher_forced,
    train_readout,
)
from .metrics import (
    MemoryProfile,
    bin_by_lambda,
    mean_squared_correlation,
    memory_capacity,
    nrmse,
)
from .reservoirs import (
    CycleDensity,
    Normalization,
    Reservoir,
    gen_combined,
    gen_cycle_enhanced,
    gen_delay_line,
    gen_er,
    gen_plw,
    gen_random_regular,
    gen_scale_free,
    make_reservoir,
    measure_cycle_density,
)
from .signals import (
    PsdProfile,
    gaussian_smooth,
    normalize_series,
    periodogram,
    reservoir_response,
    resample_to_length,
)
from .spectral import (
    SpectrumReport,
    avg_modulus,
    eigenvalues,
    normalize_avg_modulus,
    normalize_spectral_radius,
    spectral_radius,
    spectrum_report,
)
from .tasks import (
    TaskBundle,
    gen_mackey_glass,
    gen_synthetic_classification,
    load_arabic_digits,
    load_laser,
    mackey_glass_bundle,
    sine_mixture_bundle,
)

__version__ = "0.1.0"
