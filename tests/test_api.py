"""The package's exported names, written out: a change to them is a contract change."""

import camperturb

#: ``__all__`` is every public name of the package namespace, so the layer
#: modules it imports from are listed too.
PUBLIC_API = [
    "BehindCamera", "Box3D", "CalibrationSet", "CamPerturbError", "CameraIntrinsics",
    "CameraPoint", "ChannelMismatch", "DegenerateBox", "DetectionFrame", "DifficultyBin",
    "ExtrinsicPerturbation", "FeatureTensor", "HorizonLine", "ImagePoint", "MalformedImage",
    "MalformedLine", "MalformedTensor", "MatchResult", "MissingKey", "NoGroundTruth",
    "NoMatches", "NonFiniteValue", "NonPositiveDepth", "NotARotation", "NuScenesErrors",
    "ObjectLabel", "OdometryPose", "OutOfRange", "PRCurve", "PerturbationSpec",
    "PerturbedFrame", "RasterImage", "SceneFrame", "ShapeMismatch", "SimulationResult",
    "SingularHomography", "VanishingPoint", "angular_error", "average_orientation_similarity",
    "average_precision_40", "backproject", "box_corners", "content_loss", "difficulty_of",
    "ensure_rotation", "errors", "extrinsics_from_horizon_vp", "geometry", "gram", "horizon",
    "horizon_vp_from_extrinsics", "image_homography", "iou_2d", "iou_3d", "iou_bev",
    "keypoint_transfer", "kitti", "load_tensor", "loss_gradients", "losses", "match_frame",
    "metrics", "netpbm", "nuscenes_errors", "parse_calib_file", "parse_label_file",
    "parse_odometry_poses", "perturb_labels", "perturbation_matrix",
    "perturbation_matrix_literal", "project", "read_image", "rectify_center",
    "rectify_center_inverse", "rot_x", "rot_z", "sample_perturbation", "save_tensor",
    "simulate", "simulate_dataset", "simulate_frame", "style_loss", "tensor_from_bytes",
    "tensor_to_bytes", "tensorio", "total_loss", "transfer_matrix", "transform_box",
    "transform_labels", "warp_image", "write_image", "write_label_file",
]


def test_exported_names_are_pinned():
    assert camperturb.__all__ == PUBLIC_API
