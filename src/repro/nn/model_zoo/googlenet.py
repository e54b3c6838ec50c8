"""GoogLeNet (Inception v1).

A 22-layer (counting only parameterised layers) CNN whose only
fully-connected layer is the thin 1024x1000 classifier.  The paper notes
(Section 5.2) that because of this single thin FC layer and the large batch
size (128), Poseidon's hybrid communication usually *reduces to a parameter
server* for GoogLeNet -- a property the cost-model tests check explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.nn.spec import ModelSpec, SpecBuilder


@dataclass(frozen=True)
class InceptionConfig:
    """Channel configuration of one GoogLeNet inception module."""

    name: str
    n1x1: int
    n3x3_reduce: int
    n3x3: int
    n5x5_reduce: int
    n5x5: int
    pool_proj: int


#: The nine inception modules of GoogLeNet (Szegedy et al., 2015, Table 1).
INCEPTION_MODULES: Tuple[InceptionConfig, ...] = (
    InceptionConfig("inception_3a", 64, 96, 128, 16, 32, 32),
    InceptionConfig("inception_3b", 128, 128, 192, 32, 96, 64),
    InceptionConfig("inception_4a", 192, 96, 208, 16, 48, 64),
    InceptionConfig("inception_4b", 160, 112, 224, 24, 64, 64),
    InceptionConfig("inception_4c", 128, 128, 256, 24, 64, 64),
    InceptionConfig("inception_4d", 112, 144, 288, 32, 64, 64),
    InceptionConfig("inception_4e", 256, 160, 320, 32, 128, 128),
    InceptionConfig("inception_5a", 256, 160, 320, 32, 128, 128),
    InceptionConfig("inception_5b", 384, 192, 384, 48, 128, 128),
)

#: Max-pool layers are inserted after these modules (spatial downsampling).
_POOL_AFTER = {"inception_3b", "inception_4e"}


def _add_inception_module(builder: SpecBuilder, config: InceptionConfig) -> None:
    """Append the four branches of an inception module to the builder.

    The builder is sequential, so each branch is emitted with the module's
    input shape restored via :meth:`SpecBuilder.set_shape`; a final
    ``concat`` layer records the concatenated output shape.  Parameter and
    FLOP accounting (what the communication model consumes) is exact.
    """
    input_shape = builder.current_shape
    # Branch 1: 1x1 convolution.
    builder.conv(f"{config.name}/1x1", out_channels=config.n1x1, kernel=1)
    builder.relu(f"{config.name}/relu_1x1")
    # Branch 2: 1x1 reduction then 3x3 convolution.
    builder.set_shape(input_shape)
    builder.conv(f"{config.name}/3x3_reduce", out_channels=config.n3x3_reduce, kernel=1)
    builder.relu(f"{config.name}/relu_3x3_reduce")
    builder.conv(f"{config.name}/3x3", out_channels=config.n3x3, kernel=3, pad=1)
    builder.relu(f"{config.name}/relu_3x3")
    # Branch 3: 1x1 reduction then 5x5 convolution.
    builder.set_shape(input_shape)
    builder.conv(f"{config.name}/5x5_reduce", out_channels=config.n5x5_reduce, kernel=1)
    builder.relu(f"{config.name}/relu_5x5_reduce")
    builder.conv(f"{config.name}/5x5", out_channels=config.n5x5, kernel=5, pad=2)
    builder.relu(f"{config.name}/relu_5x5")
    # Branch 4: 3x3 max-pool then 1x1 projection.
    builder.set_shape(input_shape)
    builder.max_pool(f"{config.name}/pool", kernel=3, stride=1, pad=1)
    builder.conv(f"{config.name}/pool_proj", out_channels=config.pool_proj, kernel=1)
    builder.relu(f"{config.name}/relu_pool_proj")
    # Concatenate the branches along the channel axis.
    builder.concat_channels(
        f"{config.name}/output",
        (config.n1x1, config.n3x3, config.n5x5, config.pool_proj),
    )


def googlenet_spec() -> ModelSpec:
    """Layer spec of GoogLeNet (ILSVRC12, batch size 128)."""
    b = SpecBuilder("GoogLeNet", input_shape=(3, 224, 224))
    b.conv("conv1/7x7_s2", out_channels=64, kernel=7, stride=2, pad=3)
    b.relu("conv1/relu")
    b.max_pool("pool1/3x3_s2", kernel=3, stride=2, pad=1)
    b.lrn("pool1/norm1")
    b.conv("conv2/3x3_reduce", out_channels=64, kernel=1)
    b.relu("conv2/relu_reduce")
    b.conv("conv2/3x3", out_channels=192, kernel=3, pad=1)
    b.relu("conv2/relu")
    b.lrn("conv2/norm2")
    b.max_pool("pool2/3x3_s2", kernel=3, stride=2, pad=1)
    for config in INCEPTION_MODULES:
        _add_inception_module(b, config)
        if config.name in _POOL_AFTER:
            b.max_pool(f"pool_after_{config.name}", kernel=3, stride=2, pad=1)
    b.global_avg_pool("pool5/avg")
    b.dropout("pool5/drop")
    b.flatten("flatten")
    b.fc("loss3/classifier", 1000)
    b.softmax("prob")
    return b.build(
        dataset="ILSVRC12",
        default_batch_size=128,
        reference_images_per_sec=257.0,
        notes=(
            "Main tower only (no auxiliary classifiers); ~6M parameters vs. "
            "the 5M quoted in the paper's Table 3, which counts the "
            "convolutional trunk only."
        ),
    )
