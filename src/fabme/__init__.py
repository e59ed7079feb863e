"""Desk-scale fabric-defect detection toolkit: a dense-tensor core with
reverse-mode autodiff, 2-D selective-scan feature fusion, channel
attention, a YOLO-style detection graph, a tiling pipeline, mAP@0.5
evaluation, and a toy training loop."""

from fabme.tensor import Tensor, grad_check, no_grad
from fabme.scan import ScanParams, ss2d
from fabme.blocks import C2F, C2FVMamba, EMCA, SPPF, VSS
from fabme.graph import GraphSpec, build_graph, count_params, decode, variant_spec
from fabme.metrics import Detection, GroundTruth, map50, match_and_ap
from fabme.train import TrainConfig, gen_synth_dataset

# the train() entry point lives at fabme.train.train; re-exporting it here
# would shadow the submodule attribute

__all__ = [
    "Tensor", "grad_check", "no_grad",
    "ScanParams", "ss2d",
    "C2F", "C2FVMamba", "EMCA", "SPPF", "VSS",
    "GraphSpec", "build_graph", "count_params", "decode", "variant_spec",
    "Detection", "GroundTruth", "map50", "match_and_ap",
    "TrainConfig", "gen_synth_dataset",
]
__version__ = "0.1.0"
