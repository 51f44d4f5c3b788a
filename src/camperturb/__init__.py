"""camperturb: camera extrinsic perturbation toolkit for monocular 3D detection.

Simulates pitch/roll camera disturbances over KITTI-format datasets,
maps them to and from horizon/vanishing-point observations, rectifies
detections between viewports, scores detection sets (AP40, AOS,
center-distance errors), and provides the perceptual-loss kernels used
when features are transferred across viewports.

The namespace is lazy (PEP 562): a layer module is imported when one of
its names, or the module itself, is first looked up here, so a process
loads only the layers it uses.
"""

import importlib
import math

#: The exported names of each layer module.
_EXPORTS = {
    "errors": (
        "BehindCamera", "CamPerturbError", "ChannelMismatch", "DegenerateBox", "MalformedImage",
        "MalformedLine", "MalformedTensor", "MissingKey", "NoGroundTruth", "NoMatches",
        "NonFiniteValue", "NonPositiveDepth", "NotARotation", "OutOfRange", "ShapeMismatch",
        "SingularHomography",
    ),
    "geometry": (
        "Box3D", "CameraIntrinsics", "CameraPoint", "ExtrinsicPerturbation", "ImagePoint",
        "backproject", "box_corners", "ensure_rotation", "image_homography", "keypoint_transfer",
        "perturbation_matrix", "perturbation_matrix_literal", "project", "rectify_center",
        "rectify_center_inverse", "rot_x", "rot_z", "transfer_matrix", "transform_box",
    ),
    "horizon": (
        "HorizonLine", "VanishingPoint", "angular_error", "extrinsics_from_horizon_vp",
        "horizon_vp_from_extrinsics",
    ),
    "kitti": (
        "CalibrationSet", "DifficultyBin", "ObjectLabel", "OdometryPose", "difficulty_of",
        "parse_calib_file", "parse_label_file", "parse_odometry_poses", "write_label_file",
    ),
    "losses": ("FeatureTensor", "content_loss", "gram", "loss_gradients", "style_loss",
               "total_loss"),
    "metrics": (
        "DetectionFrame", "MatchResult", "NuScenesErrors", "PRCurve",
        "average_orientation_similarity", "average_precision_40", "iou_2d", "iou_3d", "iou_bev",
        "match_frame", "nuscenes_errors",
    ),
    "netpbm": ("RasterImage", "read_image", "write_image"),
    "simulate": (
        "PerturbationSpec", "PerturbedFrame", "SceneFrame", "SimulationResult", "perturb_labels",
        "sample_perturbation", "simulate_dataset", "simulate_frame", "transform_labels",
        "warp_image",
    ),
    "tensorio": ("load_tensor", "save_tensor", "tensor_from_bytes", "tensor_to_bytes"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

#: Default pitch/roll sampling width (one degree) and clamp (ten degrees), in
#: radians; here so that the CLI can show them without importing ``simulate``.
DEFAULT_SIGMA = math.radians(1.0)
DEFAULT_CLAMP = math.radians(10.0)

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
