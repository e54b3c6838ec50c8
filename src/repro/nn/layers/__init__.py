"""Runnable numpy layers used by the functional distributed trainer."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.layers.activation import GELU, ReLU
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.embedding import Embedding, PositionalEmbedding
from repro.nn.layers.norm import LayerNorm
from repro.nn.layers.attention import (
    MultiHeadAttention,
    SequenceMeanPool,
    TokenFlatten,
    TransformerBlock,
)

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "GELU",
    "Flatten",
    "Embedding",
    "PositionalEmbedding",
    "LayerNorm",
    "MultiHeadAttention",
    "TransformerBlock",
    "TokenFlatten",
    "SequenceMeanPool",
]
