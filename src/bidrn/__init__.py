"""1-bit neural-network kit: sign/STE quantization, XNOR-popcount convolution,
dual-residual blocks, a toy training harness, and Params/OPs accounting."""

from .autograd import Parameter, Var
from .binary import (BinaryConv2dParams, BinaryLinearParams, PackedBits,
                     binarize_weights, pack_signs, sign_forward, ste_grad,
                     unpack_signs)
from .errors import (ConfigError, ContractError, DimensionError, TrainingError)
from .layers import (BlockResidualMode, LcrLayer, ModuleKind, ModuleSpec,
                     NetworkConfig, RPReLUParams, build_network)
from .tensor import BatchNormParams, avg_pool2d, conv2d_reference

__version__ = "0.1.0"
