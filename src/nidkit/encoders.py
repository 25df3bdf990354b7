"""The three representation backbones, interchangeable behind one interface.

Every encoder maps a (batch, width) feature matrix to a (batch, r)
representation. ``ENCODERS`` maps each kind to its class, the kind's one
declaration: its constructor's signature holds the settings and defaults, its
``output_width`` states r without building anything. The MLP and CNN consume
the one-hot matrix directly; the feature-tokenizer transformer splits it back
into numerical values and categorical indices.
"""

from __future__ import annotations

import inspect
from functools import partial

import numpy as np

from . import nn, tensor as T
from .data import SchemaError
from .nn import ConfigError
from .tensor import Tensor

# (kind, parameter) rows of the convolutional stack, in order:
# kernel widths for conv layers, window sizes for pool layers.
CNN_STACK = (
    ("conv", 2, 32),
    ("conv", 2, 64),
    ("conv", 2, 128),
    ("pool", 3, None),
    ("conv", 2, 256),
    ("pool", 2, None),
    ("conv", 2, 512),
    ("pool", 4, None),
)


def cnn_width_trace(input_width: int) -> list:
    """Width after each stage of the conv stack; raises naming the first
    stage the input is too narrow for."""
    w = input_width
    trace = []
    for i, (kind, size, _) in enumerate(CNN_STACK):
        if w < size:
            raise T.ShapeError(f"cnn: width {w} too narrow for {kind} layer {i} "
                               f"({'kernel' if kind == 'conv' else 'window'} {size})")
        w = w - size + 1 if kind == "conv" else w // size
        trace.append(w)
    return trace


class MLPEncoder(nn.Module):
    """Four fully connected layers, 256 wide, BN+ReLU after the first three."""

    def __init__(self, input_width: int, rng: np.random.Generator,
                 hidden_dim: int = 256):
        super().__init__()
        self.input_width = input_width
        widths = [input_width, hidden_dim, hidden_dim, hidden_dim, hidden_dim]
        self.linears = [nn.Linear(widths[i], widths[i + 1], rng) for i in range(4)]
        self.norms = [nn.BatchNorm1d(hidden_dim) for _ in range(3)]

    @staticmethod
    def output_width(hidden_dim: int, **_) -> int:
        return hidden_dim

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise SchemaError(f"mlp: expected (b, {self.input_width}), got {x.shape}")
        h = x
        for i in range(3):
            h = T.relu(self.norms[i](self.linears[i](h)))
        return self.linears[3](h)


class CNNEncoder(nn.Module):
    """1xW convolutional stack over the feature vector viewed as a 1-row map.

    The input becomes a channel-last (b, W, 1) map once; every stage takes
    and returns (b, W, C) maps, so conv, ReLU and pool copy no map. The final
    flatten is C-major, as checkpoints and ``representation_dim`` expect, and
    copies once. An eval forward off the tape runs on row blocks across
    threads (:func:`nidkit.nn.rowwise`).
    """

    def __init__(self, input_width: int, rng: np.random.Generator):
        super().__init__()
        cnn_width_trace(input_width)  # fail fast while naming the layer
        self.input_width = input_width
        self.stages = []
        c_in = 1
        for kind, size, c_out in CNN_STACK:
            if kind == "conv":
                self.stages.append(nn.Conv2d1xW(c_in, c_out, size, rng))
                c_in = c_out
            else:
                self.stages.append(partial(T.maxpool1xk, k=size))

    @staticmethod
    def output_width(input_width: int, **_) -> int:
        return cnn_width_trace(input_width)[-1] * CNN_STACK[-2][2]

    def forward(self, x: Tensor) -> Tensor:
        return nn.rowwise(self._forward, self, x)

    def _forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise SchemaError(f"cnn: expected (b, {self.input_width}), got {x.shape}")
        b = x.shape[0]
        h = T.reshape(x, (b, self.input_width, 1))
        for stage in self.stages:
            h = stage(h)
            if isinstance(stage, nn.Conv2d1xW):
                h = T.relu(h)
        return T.reshape(T.transpose(h, (0, 2, 1)), (b, h.shape[1] * h.shape[2]))


class _TransformerBlock(nn.Module):
    """Pre-norm block: x + MHA(LN(x)), then x + FFN(LN(x)) with GELU."""

    def __init__(self, dim: int, heads: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.ln1 = nn.LayerNorm(dim)
        self.attn = nn.MultiHeadAttention(dim, heads, rng, dropout=dropout)
        self.ln2 = nn.LayerNorm(dim)
        ffn_hidden = int(round(4.0 / 3.0 * dim))
        self.ffn_in = nn.Linear(dim, ffn_hidden, rng)
        self.ffn_out = nn.Linear(ffn_hidden, dim, rng)
        self.ffn_drop = nn.Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x)))
        h = self.ffn_out(self.ffn_drop(T.gelu(self.ffn_in(self.ln2(x)))))
        return T.add(x, h)


class FTTransformerEncoder(nn.Module):
    """Feature-tokenizer transformer for mixed tabular inputs.

    Each numerical feature j becomes the token x_j * W_j + b_j; each
    categorical feature becomes the row its one-hot block selects from one
    embedding table that holds every feature's categories. Tokens run
    through pre-norm transformer blocks and the final token matrix is
    flattened (no classification token). An eval forward off the tape runs
    on row blocks across threads (:func:`nidkit.nn.rowwise`).
    """

    def __init__(self, input_width: int, numeric_cols, cat_groups: dict,
                 rng: np.random.Generator, token_dim: int = 32, heads: int = 4,
                 layers: int = 4, dropout: float = 0.1):
        super().__init__()
        self.input_width = input_width
        self.numeric_cols = np.asarray(self.numeric_columns(input_width, numeric_cols, cat_groups),
                                       dtype=np.int64)
        self.group_cols = [np.asarray(cat_groups[g], dtype=np.int64) for g in sorted(cat_groups)]

        std = 1.0 / np.sqrt(token_dim)
        n_num = len(self.numeric_cols)
        draw = lambda rows: rng.normal(scale=std, size=(rows, token_dim)).astype(T.DTYPE)
        self.num_weight = Tensor(draw(n_num), requires_grad=True)
        self.num_bias = Tensor(draw(n_num), requires_grad=True)
        # one table for every group's categories, group g's rows from
        # offsets[g] on; no groups, no table (Adam needs every gradient)
        sizes = [len(cols) for cols in self.group_cols]
        self.offsets = np.cumsum([0] + sizes[:-1])
        self.embedding = Tensor(draw(sum(sizes)), requires_grad=True) if sizes else None
        self.blocks = [_TransformerBlock(token_dim, heads, dropout, rng)
                       for _ in range(layers)]

    @staticmethod
    def numeric_columns(input_width: int, numeric_cols, cat_groups: dict):
        """The numeric columns; with no layout, every column is numeric."""
        return numeric_cols if len(numeric_cols) or cat_groups else range(input_width)

    @staticmethod
    def output_width(input_width: int, numeric_cols, cat_groups: dict, token_dim: int,
                     **_) -> int:
        numeric = FTTransformerEncoder.numeric_columns(input_width, numeric_cols, cat_groups)
        return (len(numeric) + len(cat_groups)) * token_dim

    def tokenize(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise SchemaError(f"ft: expected (b, {self.input_width}), got {x.shape}")
        b = x.shape[0]
        parts = []
        if len(self.numeric_cols):
            vals = x[(slice(None), self.numeric_cols)]          # (b, n_num)
            vals = T.reshape(vals, (b, len(self.numeric_cols), 1))
            parts.append(T.add(T.mul(vals, self.num_weight), self.num_bias))
        if self.embedding is not None:
            codes = np.stack([np.argmax(x.values[:, cols], axis=1)
                              for cols in self.group_cols], axis=1)  # (b, G)
            parts.append(self.embedding[codes + self.offsets])    # (b, G, token_dim)
        return parts[0] if len(parts) == 1 else T.concat(parts, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        return nn.rowwise(self._forward, self, x)

    def _forward(self, x: Tensor) -> Tensor:
        tokens = self.tokenize(x)
        for block in self.blocks:
            tokens = block(tokens)
        return T.reshape(tokens, (tokens.shape[0], tokens.shape[1] * tokens.shape[2]))


ENCODERS = {"mlp": MLPEncoder, "cnn": CNNEncoder, "ft_transformer": FTTransformerEncoder}


def _encoder_class(config: dict) -> type:
    """The class of a mapping's ``kind``; an unknown kind is a ``ConfigError``."""
    try:
        return ENCODERS[config["kind"]]
    except (KeyError, TypeError):   # no kind, or one that is not a name
        raise ConfigError(f"unknown encoder kind {config.get('kind')!r}") from None


def representation_dim(config: dict) -> int:
    """The width of the encoder an ``encoder_config_for`` mapping builds."""
    return _encoder_class(config).output_width(**config)


def build_encoder(config: dict, rng: np.random.Generator) -> nn.Module:
    """An ``encoder_config_for`` mapping's encoder, from the keys its class takes."""
    cls = _encoder_class(config)
    takes = inspect.signature(cls).parameters
    return cls(rng=rng, **{k: v for k, v in config.items() if k in takes})
