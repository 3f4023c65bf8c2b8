"""Exact-arithmetic toolkit for k-fold coverings of a square window by
translates of the canonical right triangle: stair-polygon decomposition,
exact verification and audits, area/density bounds, and lattice search.
"""

from .bounds import (
    BoundReport,
    density_chain,
    max_stair_area,
    stair_area_bound,
)
from .decomposition import (
    CoveringInstance,
    DecompositionResult,
    NonStairCell,
    decompose,
)
from .geom import (
    Point,
    Rect,
    StairPolygon,
    pt,
)
from .lattice import (
    Lattice,
    LatticeSearchReport,
    hermite_basis,
    lattice_covers,
    lattice_instance,
    lattice_multiplicity,
    perturb_instance,
    search_optimal_lattice,
)
from .rational import rat, rat_str
from .verification import (
    AuditReport,
    AuditVerdict,
    CoverageCertificate,
    audit_boundary_cut,
    audit_cell_shape,
    audit_corner_counts,
    audit_disjointness,
    audit_inner_corners,
    audit_minimal_element,
    coverage_certificate,
    multiplicity_grid,
    run_audits,
    verify_exact_tiling,
)

__version__ = "0.1.0"
