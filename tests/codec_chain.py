"""The plain codec chain on pixels, which the tests run afresh per qp."""

import numpy as np

from cpdtlab.codec import DEFAULT_BLOCK_SIZE, EncodedPlane, _MID_GREY, _tile, encode_plane
from cpdtlab.transform import forward_transform


def _transform_plane(plane: np.ndarray, block_size: int) -> np.ndarray:
    """A uint8 plane tiled, centred by _MID_GREY and forward-transformed, as
    (blocks_y, blocks_x, N, N) coefficients."""
    return forward_transform(_tile(plane, block_size).astype(np.int16) - _MID_GREY)


def encode(plane: np.ndarray, qp: int, block_size: int = DEFAULT_BLOCK_SIZE) -> EncodedPlane:
    """A uint8 plane transformed and then quantized at qp."""
    return encode_plane(_transform_plane(plane, block_size), qp, np.shape(plane))
