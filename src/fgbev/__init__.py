"""Foreground-filtered BEV perception toolkit.

Deterministic building blocks for camera-to-BEV feature synthesis: pinhole
geometry, LiDAR-derived hard labels, point cloud densification, foreground
gated lift-splat pooling, multi-scale foreground fusion, and a normalized
feature-alignment loss, all validated against built-in brute-force oracles
on synthetic scenes.
"""

from .distill import (
    BevEncoder,
    BoxBlurEncoder,
    GradientCheckResult,
    IdentityEncoder,
    distillation_loss,
    encode_joint,
    get_encoder,
    loss_gradient_check,
)
from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    PointCloud,
    RigidTransform,
    box3d_corners,
    box_corner_pixels,
    box_point_counts,
    clip_rects,
    points_in_box,
    project_box3d_to_box2d,
    visible_corner_rects,
)
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    generate_hard_labels,
    merge_labels,
)
from .msfe import (
    FeaturePyramid,
    ForegroundHeatmap,
    downsample,
    elliptical_gaussian_heatmap,
    gaussian_focal_loss,
    msfe_fuse,
    threshold_filter,
)
from .pci import (
    PciReport,
    PseudoPoint,
    frame_combination,
    inject_pseudo_points,
    pci_statistics,
    pseudo_point_assignment,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    ablation_sweep,
    run_pipeline,
)
from .scene import (
    Frame,
    Scene,
    SceneConfig,
    generate_scene,
    load_scene,
    save_scene,
    soft_labels_from_frame,
    synth_feature_pyramid,
)
from .view_transform import (
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    Frustum,
    build_frustum,
    sa_bev_pool,
    teacher_bev,
)

__version__ = "0.1.0"
