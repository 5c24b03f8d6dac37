"""Binary PGM serialization: round trip, header parsing, rejection paths."""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpdtlab
from cpdtlab.cli import main
from cpdtlab.pgm import _READ_BYTES, encode_pgm, read_pgm


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

    @pytest.mark.parametrize("shape", [(300, 301), (1, 3 * _READ_BYTES + 5)])
    def test_raster_past_one_read(self, tmp_path, shape):
        # The raster arrives in several pieces of at most _READ_BYTES.
        plane = np.random.default_rng(shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
        assert plane.size > _READ_BYTES
        path = tmp_path / "a.pgm"
        path.write_bytes(encode_pgm(plane))
        assert np.array_equal(read_pgm(str(path)), plane)


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

    @pytest.mark.parametrize("header", [b"P5\n+2 2\n255\n", b"P5\n1_0 1\n255\n",
                                        b"P5\n2 2\n0xff\n", b"P5\n2 2\n255#\n"])
    def test_header_numbers_are_decimal_digits(self, tmp_path, header):
        # int() would read "+2" as 2 and "1_0" as 10; the format has digits only,
        # and one whitespace byte, not a comment, before the raster.
        data = header + bytes(10)
        with pytest.raises(ValueError, match="^malformed or truncated PGM header$"):
            read_pgm(self._write(tmp_path, data))

    @pytest.mark.parametrize("digits", [21, 5000])
    def test_header_number_past_20_digits_is_malformed(self, tmp_path, capsys, digits):
        # int() refuses 5000 digits with a message about the interpreter's limit.
        path = self._write(tmp_path, b"P5\n" + b"9" * digits + b" 1\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="^malformed or truncated PGM header$"):
            read_pgm(path)
        assert main(["rd-curve", "--input", path, "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == "error: malformed or truncated PGM header\n"

    @pytest.mark.parametrize("width, height", [(0, 5), (5, 0)])
    def test_zero_dimension_is_refused(self, tmp_path, capsys, width, height):
        path = self._write(tmp_path, b"P5\n%d %d\n255\n" % (width, height))
        message = f"bad dimensions {width}x{height}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_pgm(path)
        assert main(["rd-curve", "--input", path, "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_header_number_of_20_digits_is_read(self, tmp_path):
        data = b"P5\n" + b"9" * 20 + b" 1\n255\n" + bytes(4)
        with pytest.raises(ValueError, match="^truncated PGM raster$"):
            read_pgm(self._write(tmp_path, data))

    def test_comment_runs_to_a_line_break(self, tmp_path):
        data = b"P5\r\n# a # b\r\n2#c\r\n 2\r\n##\r\n255\n" + bytes([1, 2, 3, 4])
        back = read_pgm(self._write(tmp_path, data))
        assert back.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("filler", [b"#", b"#\n", b"#\r\n", b" "])
    def test_header_without_digits_fails_fast(self, tmp_path, filler):
        # 64 KiB of comment or whitespace with no number in it: the header
        # pattern fails in time linear in the bytes it was given.
        data = b"P5" + filler * ((1 << 16) // len(filler))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="truncated PGM header$"):
            read_pgm(self._write(tmp_path, data))
        assert time.perf_counter() - start < 1.0


class TestBoundedRead:
    @staticmethod
    def _peak_while_rejected(path, match: str) -> int:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                read_pgm(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_tail_is_counted_not_read(self, tmp_path):
        path = tmp_path / "tail.pgm"
        tail = 64 << 20
        with open(path, "wb") as f:
            f.write(b"P5\n2 2\n255\n" + bytes(4))
            f.truncate(f.tell() + tail)  # sparse: the tail takes no disk
        assert self._peak_while_rejected(path, f"^{tail} trailing bytes") < 1 << 20

    def test_huge_header_on_a_short_file_is_truncated(self, tmp_path):
        # The header declares 10^10 raster bytes; the file holds none of them.
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n100000 100000\n255\n")
        assert self._peak_while_rejected(path, "^truncated PGM raster$") < 1 << 20

    def test_endless_input_fails_in_bounded_memory(self, tmp_path):
        if not (os.path.exists("/dev/zero") and os.path.exists("/proc/self/statm")):
            pytest.skip("needs /dev/zero and /proc")
        # The child caps its own address space 256 MiB above what its imports
        # took, so a reader that reads the stream whole fails there instead of
        # exhausting the machine.
        code = (
            "import os, resource, sys\n"
            "from cpdtlab.cli import main\n"
            "vm = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "resource.setrlimit(resource.RLIMIT_AS, (vm + (256 << 20),) * 2)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(cpdtlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", code, "rd-curve", "--input", "/dev/zero",
             "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: not a binary PGM (P5) file: magic b'\\x00\\x00'"
        ]
        assert list(tmp_path.iterdir()) == []
