"""Binary PGM serialization: round trip, header parsing, rejection paths."""

import numpy as np
import pytest

from cpdtlab.pgm import encode_pgm, read_pgm


@pytest.fixture
def plane():
    rng = np.random.default_rng(13)
    return rng.integers(0, 256, size=(40, 64), dtype=np.uint8)


class TestRoundTrip:
    def test_bit_exact(self, plane, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(encode_pgm(plane))
        back = read_pgm(str(path))
        assert back.dtype == np.uint8
        assert np.array_equal(back, plane)

    def test_file_is_byte_stable(self, plane, tmp_path):
        # A read-back PGM re-encodes to the same bytes.
        path = tmp_path / "a.pgm"
        path.write_bytes(encode_pgm(plane))
        assert encode_pgm(read_pgm(str(path))) == path.read_bytes()

    def test_returned_array_is_writable(self, plane, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(encode_pgm(plane))
        back = read_pgm(str(path))
        back[0, 0] = 0  # must not raise (frombuffer alone would be read-only)


class TestEncode:
    def test_header_layout(self, plane):
        data = encode_pgm(plane)
        assert data.startswith(b"P5\n64 40\n255\n")
        assert len(data) == len(b"P5\n64 40\n255\n") + 40 * 64

    def test_rejects_non_uint8(self):
        with pytest.raises(TypeError):
            encode_pgm(np.zeros((4, 4), dtype=np.int32))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode_pgm(np.zeros((4, 4, 3), dtype=np.uint8))


class TestRead:
    def _write(self, tmp_path, data: bytes) -> str:
        path = tmp_path / "x.pgm"
        path.write_bytes(data)
        return str(path)

    def test_comments_in_header_are_skipped(self, tmp_path):
        data = b"P5\n# generator note\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
        back = read_pgm(self._write(tmp_path, data))
        assert back.tolist() == [[1, 2], [3, 4]]

    def test_rejects_ascii_variant(self, tmp_path):
        data = b"P2\n2 2\n255\n1 2 3 4\n"
        with pytest.raises(ValueError, match="P5"):
            read_pgm(self._write(tmp_path, data))

    def test_rejects_wide_maxval(self, tmp_path):
        data = b"P5\n2 2\n65535\n" + bytes(8)
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(self._write(tmp_path, data))

    def test_rejects_truncated_raster(self, tmp_path):
        data = b"P5\n4 4\n255\n" + bytes(15)
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(self._write(tmp_path, data))

    def test_rejects_trailing_bytes(self, tmp_path):
        data = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError, match="2 trailing bytes"):
            read_pgm(self._write(tmp_path, data))

    def test_rejects_truncated_header(self, tmp_path):
        with pytest.raises(ValueError):
            read_pgm(self._write(tmp_path, b"P5\n4"))
