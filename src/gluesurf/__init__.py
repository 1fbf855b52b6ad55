"""Invariants of non-normal surfaces described by combinatorial gluing data."""

from .errors import (
    BudgetExceededError,
    GluesurfError,
    GluingValidationError,
    InputError,
    UnsupportedError,
)
from .gluing import (
    CurveComponent,
    DegenerateCusp,
    GluingData,
    NormalComponent,
    ValidatedGluing,
    cusps,
    euler_characteristics,
    gluing_from_dict,
    gluing_to_dict,
    quotient_curve,
    validate_gluing,
)
from .grouptheory import (
    FiniteGroup,
    Fingerprint,
    GroupPresentation,
    Word,
    abelianization,
    catalog_group,
    cyclic_reduce,
    default_catalog,
    fingerprint,
    free_reduce,
    hom_count,
    tietze_simplify,
    word_from_str,
)
from .intlinalg import (
    AbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    cokernel_invariants,
    snf,
)
from .invariants import (
    InvariantReport,
    PicardSummary,
    compute_report,
    cusp_matrix,
    irregularity,
    k_squared,
    picard_summary,
)
from .topology import (
    HomologyOfX,
    HomotopyGraph,
    homology_of_X,
    homotopy_graph,
    mv_matrices,
    pi1_presentation,
)
from .fourlines import (
    LinePairBijections,
    OrbitRecord,
    all_gluings,
    build_four_lines,
    d4_action,
    enumerate_orbits,
    orbit_and_stabilizer,
)

__version__ = "0.1.0"
