"""Fission schemes of the triangular scheme on PG(1,q).

Exact construction and verification of the association schemes induced
by the fractional-linear, square-determinant, twisted sharply
3-transitive and full semilinear groups acting on 2-element subsets of
the projective line, together with their isomorphic models on secant
lines and square-type points of a conic in PG(2,q).
"""

import os

# When numpy loads, OpenBLAS starts one worker per core, and each worker
# busy-waits 2^28 cycles for a job before it sleeps. Each command of this
# program runs in its own short process and rarely calls BLAS, so the wait
# is pure cost: on 2 vCPUs `import numpy` took 0.23-0.28 CPU-s by default
# and 0.16 CPU-s with a timeout of 2^4, and the `cli` benchmark's cpu_s fell
# from a median of 4.67 to 2.82 s. The workers still serve large products
# (`build --q 49 --group psl --exhaustive` kept 16-20 s, where one thread
# took 24-26 s). A value the user sets wins. This must run before the first
# import below loads numpy.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .gf import (
    CONWAY_POLYNOMIALS,
    GF,
    NoInvolutionError,
    field,
)
from .geometry import (
    Domain,
    PG1,
    Plane,
    domain,
    hyperbolic_lines_domain,
    hyperbolic_points_domain,
    pairs_domain,
)
from .moebius import (
    GROUPS,
    InvalidGroupError,
    base_pair_stabilizer,
    domain_perm,
    generators,
    group_order,
    groups,
    in_group,
    point_perms,
    transporter_to_base,
)
from .schemes import (
    DomainSizeError,
    NotASchemeError,
    NotTransitiveError,
    Scheme,
    fuse,
    fusion_map,
    group_orbital_scheme,
    is_fusion,
    orbital_scheme,
    orbital_scheme_via_stabilizer,
    p_polynomial_orderings,
    partition_bijection,
    triangular_scheme,
)
from .fission import (
    RelationLabel,
    TheoremReport,
    TheoremViolationError,
    build_ft,
    count_pgammal_classes,
    default_q_list,
    labeled_scheme,
    m_orbit_label,
    pgammal_orbit_label,
    psl_orbit_label,
    report_theorem,
    verify_paper,
)

__version__ = "0.1.0"
