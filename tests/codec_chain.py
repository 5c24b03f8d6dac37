"""The plain codec chain on pixels, which the tests run afresh per qp."""

import numpy as np

from cpdtlab.codec import DEFAULT_BLOCK_SIZE, EncodedPlane, _transform_plane, encode_plane


def encode(plane: np.ndarray, qp: int, block_size: int = DEFAULT_BLOCK_SIZE) -> EncodedPlane:
    """A uint8 plane transformed and then quantized at qp."""
    return encode_plane(_transform_plane(plane, block_size), qp, np.shape(plane))
