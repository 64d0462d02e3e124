"""Contact-geometric toolkit for finite thermodynamic systems.

Equilibrium families as fronts, non-negativity certification of sampled
paths, Reeb chord detection, gradient-flow relaxation and slow-isotopy
tracing.
"""

from .chords import (
    Chord,
    DegenerateChordError,
    DegenerateFamilyError,
    chords_to_csv,
    chords_to_json,
    cw_chord,
    find_chords,
    gas_chord,
)
from .microstate import (
    AffineHamiltonian,
    GibbsResult,
    MicrostateSpace,
    densities_from_csv,
    densities_to_csv,
    entropy,
    free_energy,
    gibbs,
    internal_energy,
    lift_rows,
    lift_to_extended,
    load_system,
    normalized_density,
    pressures,
    save_system,
    total_variation,
    uniform_density,
)
from .models import (
    CurieWeissParams,
    CWBranchPoint,
    DomainError,
    FrontFunction,
    IdealGasParams,
    constant_front,
    cw_coupling_derivatives,
    cw_dz_dT,
    cw_entropy,
    cw_entropy_y,
    cw_from_barred,
    cw_magnetization_roots,
    cw_point_from_p,
    cw_to_barred,
    difference_front,
    gas_from_barred,
    gas_front,
    gas_to_barred,
    sample_cw_legendrian,
    sample_gas_legendrian,
    select_equilibrium,
)
from .phase_space import (
    NonnegReport,
    ReductionError,
    ReductionSpec,
    SampledPath,
    admissibility_decrement,
    check_path_nonnegative,
    irreversible_entropy_rate,
    path_from_csv,
    path_to_csv,
    reduce,
)
from .processes import (
    BranchLossError,
    CycleSegment,
    IntegrationError,
    IsotopyTrace,
    JumpRecord,
    RelaxTrace,
    Schedule,
    StirlingCycleTrace,
    fokker_planck_relax,
    run_slow_isotopy,
    stirling_cycle,
    ultrafast_jump,
)

__version__ = "0.1.0"
