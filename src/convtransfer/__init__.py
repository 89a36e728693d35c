"""Cross-domain transfer learning with convolutional attribute embeddings.

A numpy implementation of a multi-branch convolutional model for
label-scarce target domains: a shared (domain-independent) encoder whose
per-domain means are matched, per-domain encoders, and an attribute
embedding branch tied to binary side information through a linear map.
Training minimizes a five-term joint objective by fixed-step sub-gradient
descent.
"""

from .convnet import ConvBlock, ForwardTrace, conv_backward, conv_forward
from .dataset import (
    DataError,
    DataPoint,
    MultiDomainDataset,
    NeighborGraph,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_target,
)
from .model import (
    Dims,
    ModelParams,
    Representation,
    classify,
    init_params,
    load_params,
    predict,
    represent,
    save_params,
)
from .gradcheck import (
    gradient_check,
    random_smooth_instance,
    relative_error,
)
from .numeric import Rng
from .objective import (
    DivergenceError,
    ObjectiveBreakdown,
    TrainConfig,
    TrajectoryRow,
    evaluate,
    gradient,
    neighbor_loss,
    objective,
    train,
    write_trajectory_csv,
)

__version__ = "0.1.0"
