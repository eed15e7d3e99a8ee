"""Navigation toolkit for climbing inspection robots on lattice steel structures.

Point clouds in, decisions out: switching-control mode selection
(mobile, inch-worm, stop), edge-covering inspection routes, and
collision-checked motion paths.
"""

from .boundary import (
    Border,
    Boundary,
    are_neighbors,
    cluster_border,
    default_alpha_s,
    ncbe,
)
from .cloud import (
    Frame,
    PlanePatch,
    PointCloud,
    RigidTransform,
    extract_plane_ransac,
    load_cloud,
    passthrough_filter,
    project_to_2d,
    transform_cloud,
    voxel_downsample,
)
from .errors import SteelNavError
from .graph import StructureGraph, VertexKind, build_graph, fit_principal_line
from .planner import (
    Config,
    Footprint,
    MotionPath,
    RrtParams,
    plan_route,
    rrt_plan,
)
from .route import (
    Multigraph,
    RoutePlan,
    brute_force_ocpp,
    dijkstra,
    euler_trail,
    min_weight_pairing,
    vocpp,
)
from .segmentation import ClusterSet, GmmModel, em_gmm_fit, segment_structure
from .switching import (
    FootParams,
    Mode,
    SurfacePose,
    SwitchDecision,
    height_available,
    plane_available,
    switch_decision,
)
from .synth import Shape, StructureSpec, generate

__all__ = [
    "Border", "Boundary", "are_neighbors", "cluster_border", "default_alpha_s", "ncbe",
    "Frame", "PlanePatch", "PointCloud", "RigidTransform", "extract_plane_ransac",
    "load_cloud", "passthrough_filter", "project_to_2d", "transform_cloud",
    "voxel_downsample",
    "SteelNavError",
    "StructureGraph", "VertexKind", "build_graph", "fit_principal_line",
    "Config", "Footprint", "MotionPath", "RrtParams", "plan_route", "rrt_plan",
    "Multigraph", "RoutePlan", "brute_force_ocpp", "dijkstra", "euler_trail",
    "min_weight_pairing", "vocpp",
    "ClusterSet", "GmmModel", "em_gmm_fit", "segment_structure",
    "FootParams", "Mode", "SurfacePose", "SwitchDecision", "height_available",
    "plane_available", "switch_decision",
    "Shape", "StructureSpec", "generate",
]
