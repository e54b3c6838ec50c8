"""GPT-style transformer specs and a runnable mini-transformer.

The paper predates the transformer; these shapes put Algorithm 1 in front
of token-level FC layers.  Two shapes are registered:

* ``nanogpt-12l`` -- the 12-layer character/byte-level nanoGPT training
  shape (n_embd 384, 6 heads, block 256, vocab padded to 50304).
* ``gpt2-small`` -- the GPT-2 124M shape (n_embd 768, 12 heads, block
  1024, vocab 50257), with an untied head like the paper's FC layers.

Costing: a token FC caches one factor row per *token*, so its factors
``(x, dy)`` have ``K = batch * seq_len`` rows (its
:attr:`~repro.nn.spec.LayerSpec.factor_rank` is ``seq_len``), where a CNN FC
layer has one row per image.  Table 1 prices SFB at ``2 K (P1 - 1)(M + N)``,
so at ``K = B * T`` sufficient factors cost far more than the dense
``M x N`` gradient for every layer of the shapes registered here, the
vocabulary head included: Algorithm 1 never picks SFB for them (PS on a
flat network, mostly ring all-reduce under rack oversubscription).
Re-factorising per sequence would not rescue ``K = batch``: one
sequence's contribution to the weight gradient has rank up to
``min(T, M, N)``, not 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import (
    Dense,
    Embedding,
    LayerNorm,
    PositionalEmbedding,
    SequenceMeanPool,
    TokenFlatten,
    TransformerBlock,
)
from repro.nn.network import Network
from repro.nn.spec import ModelSpec, SpecBuilder


def transformer_spec(name: str, vocab_size: int, block_size: int, n_embd: int,
                     num_heads: int, num_blocks: int, mlp_ratio: int = 4,
                     dataset: str = "openwebtext",
                     default_batch_size: int = 12,
                     notes: str = "",
                     num_classes: Optional[int] = None) -> ModelSpec:
    """Declarative GPT-style spec: embeddings, N blocks, final norm, a head.

    The head is :func:`build_transformer_network`'s: an untied token-level
    ``lm_head`` (factor rank ``block_size``), or with ``num_classes`` a
    sequence mean-pool and a ``cls_head`` FC (factor rank 1).
    """
    b = SpecBuilder(name, input_shape=(block_size,))
    b.embedding("wte", vocab_size, n_embd)
    b.positional("wpe")
    for index in range(num_blocks):
        b.transformer_block(f"h{index}", num_heads, mlp_ratio=mlp_ratio)
    b.layer_norm("ln_f")
    if num_classes is None:
        b.token_fc("lm_head", vocab_size, bias=False)
    else:
        b.sequence_mean_pool("pool")
        b.fc("cls_head", num_classes)
    b.softmax("prob")
    return b.build(dataset=dataset, default_batch_size=default_batch_size,
                   notes=notes)


def nanogpt_12l_spec() -> ModelSpec:
    """12-layer nanoGPT shape: n_embd 384, 6 heads, block 256, vocab 50304."""
    return transformer_spec(
        "nanogpt-12l", vocab_size=50304, block_size=256, n_embd=384,
        num_heads=6, num_blocks=12,
        notes="nanoGPT 12-layer training shape; untied lm_head, "
              "vocab padded to a multiple of 64",
    )


def gpt2_small_spec() -> ModelSpec:
    """GPT-2 small (124M) shape: n_embd 768, 12 heads, block 1024."""
    return transformer_spec(
        "gpt2-small", vocab_size=50257, block_size=1024, n_embd=768,
        num_heads=12, num_blocks=12,
        notes="GPT-2 124M shape with an untied lm_head "
              "(tied embeddings would halve the head's sync traffic)",
    )


def build_transformer_network(vocab_size: int = 64, block_size: int = 8,
                              n_embd: int = 16, num_heads: int = 2,
                              num_blocks: int = 2, num_classes: Optional[int] = None,
                              causal: bool = True, seed: int = 0,
                              rng: Optional[np.random.Generator] = None) -> Network:
    """Runnable numpy mini-transformer for the distributed trainer.

    Two head variants share the same trunk (token embedding + positional
    table + ``num_blocks`` pre-norm blocks + final LayerNorm):

    * ``num_classes=None`` (LM mode): a :class:`TokenFlatten` folds the
      sequence axis into the batch and a plain :class:`Dense` projects to
      ``vocab_size`` -- logits are ``(B*T, vocab)`` and labels must be the
      flattened next-token ids ``(B*T,)``.  The head's factor rank is
      ``block_size``: it is priced for full-length sequences.
    * ``num_classes=k`` (sequence classification): a
      :class:`SequenceMeanPool` collapses the sequence and a Dense head
      projects to ``k`` classes -- logits ``(B, k)``, labels ``(B,)``,
      which matches the trainer's one-label-per-sample datasets.

    Either way the head is a plain ``Dense``, so it stays eligible for
    sufficient-factor broadcasting in the runnable trainer.
    """
    rng = rng or np.random.default_rng(seed)
    layers = [
        Embedding("wte", vocab_size, n_embd, rng=rng),
        PositionalEmbedding("wpe", block_size, n_embd, rng=rng),
    ]
    for index in range(num_blocks):
        layers.append(TransformerBlock(f"h{index}", n_embd, num_heads,
                                       causal=causal, rng=rng))
    layers.append(LayerNorm("ln_f", n_embd))
    if num_classes is None:
        layers.append(TokenFlatten("tokens"))
        layers.append(Dense("lm_head", n_embd, vocab_size, rng=rng,
                            factor_rank=block_size))
    else:
        layers.append(SequenceMeanPool("pool"))
        layers.append(Dense("cls_head", n_embd, num_classes, rng=rng))
    return Network(layers, name="transformer")
