"""Discretized chaos-expansion calculus over the free Poisson algebra."""

from types import ModuleType as _ModuleType

from .chaos import (
    ChaosElement,
    MomentReport,
    element_inner,
    free_poisson_moment,
    moment_diagram,
    moment_product,
    moment_report,
    moment_trace_formula,
    poisson_multiply,
    semicircular_moment,
    trace,
    wigner_multiply,
)
from .errors import (
    GridMismatchError,
    GroundSetMismatchError,
    IdentityMismatchError,
    MirrorSymmetryError,
    SizeLimitError,
)
from .kernels import (
    GridKernel,
    TamednessReport,
    add,
    adjoint,
    arc_contraction,
    diagram_integral,
    inner,
    is_mirror_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    norm2,
    save_kernel,
    scale,
    star_contraction,
    subtract,
    tamedness_report,
)
from .partitions import (
    RiordanTable,
    SetPartition,
    bell,
    catalan,
    enumerate_nc,
    enumerate_partitions,
    meet_is_zero,
    nc0_classes,
    riordan,
)
from .theorems import (
    ConvergenceSeries,
    IdentityReport,
    IndicatorReport,
    KernelFamily,
    StepRecord,
    TransferReport,
    TransferRow,
    convergence_experiment,
    fourth_moment_identity,
    fourth_moment_statistic,
    hyperdiagonal_family,
    identity_terms,
    indicator_characterization,
    indicator_family,
    perturbed_indicator_family,
    transfer_experiment,
)

# names only: the submodules stay out of a star import
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
