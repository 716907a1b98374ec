"""Kobayashi distances, CAT(0) certificates, m-convexity and rescaling
limits on convex domains in C^d."""

import gc

from .domains import (
    AffineImage,
    Ball,
    ConvexDomain,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    Intersection,
    PlanarOracle,
    Polydisk,
    Product,
    RealPolynomial,
    Sector,
    domain_from_json,
    domain_to_json,
    intersection,
    right_half_plane,
    sector,
    unit_disk,
    upper_half_plane,
)
from .planar import (
    ConformalChart,
    chart,
    disk_distance,
    planar_distance,
    planar_geodesic,
    planar_metric,
)
from .metric import (
    DistanceInterval,
    distance,
    geodesic_approx,
    infinitesimal,
    midpoint_search,
)
from .cat0 import (
    Cat0Certificate,
    midpoint_defect,
    product_certificate,
)
from .convexity import (
    AffineLine,
    LineTypeResult,
    MConvexityReport,
    line_type,
    local_m_convex_check,
    vanishing_order,
)
from .limits import (
    ConvergenceTable,
    Frankel2bResult,
    HausdorffReading,
    ScalingSequence,
    convergence_check,
    dilation_sequence,
    example36,
    example36_domain,
    frankel_2b,
    hausdorff,
    scaling_lemma32,
)
from . import errors

__version__ = "0.1.0"

# Importing numpy, scipy and the modules above leaves tens of thousands of
# young container objects, and the collector's oldest generation then falls
# due within a few thousand further allocations (CPython 3.11): a full
# collection of the whole import-time heap, tens of milliseconds, would land
# inside whichever early query happened to be running.  It is taken here,
# once, as part of import.
gc.collect()
