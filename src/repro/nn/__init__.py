"""Neural-network layers built on the repro autograd engine."""

from .attention import MultiHeadAttention, causal_mask, key_padding_mask
from .layers import (
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    LeakyReLU,
    Linear,
    ReLU,
)
from .module import Module, ModuleList, Parameter, Sequential
from .rnn import GRU, GRUCell, LSTM, DilatedLSTM, LSTMCell

__all__ = [
    "Conv2d",
    "DilatedLSTM",
    "Dropout",
    "Embedding",
    "Flatten",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "LeakyReLU",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Parameter",
    "ReLU",
    "Sequential",
    "causal_mask",
    "key_padding_mask",
]
