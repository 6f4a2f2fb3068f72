import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layermet.image import (
    BinaryMask,
    GrayImage,
    MaskValueError,
    PgmError,
    mask_to_pgm,
    normalize,
    pgm_to_mask,
    read_pgm,
    render_overlay,
    write_pgm,
)


class TestNormalize:
    def test_all_zero(self):
        img = normalize(np.zeros((4, 4), dtype=np.uint8))
        assert (img.pixels == 0.0).all()

    def test_all_255(self):
        img = normalize(np.full((3, 5), 255, dtype=np.uint8))
        assert (img.pixels == 1.0).all()

    def test_51_maps_to_point_two(self):
        img = normalize(np.full((1, 1), 51, dtype=np.uint8))
        assert abs(img.pixels[0, 0] - 0.2) < 1e-9

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((0, 4), dtype=np.uint8))

    def test_dimensions_preserved(self):
        img = normalize(np.zeros((7, 11), dtype=np.uint8))
        assert (img.height, img.width) == (7, 11)

    @given(st.integers(0, 254), st.integers(1, 255))
    def test_monotone(self, a, delta):
        b = min(255, a + delta)
        out = normalize(np.array([[a, b]], dtype=np.uint8))
        assert out.pixels[0, 0] <= out.pixels[0, 1]


class TestGrayImageInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.5, 1.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.5, np.nan]]))

    def test_pixels_locked(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0


class TestPgm:
    def test_hand_constructed_13_byte_file(self):
        data = b"P5\n2 1\n255\n\x00\xff"
        assert len(data) == 13
        grid = read_pgm(data)
        assert grid.shape == (1, 2)
        assert grid.tolist() == [[0, 255]]

    def test_round_trip_identity(self, rng):
        grid = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        assert write_pgm(read_pgm(write_pgm(grid))) == write_pgm(grid)

    def test_round_trip_modulo_comments(self, rng):
        grid = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        canonical = write_pgm(grid)
        with_comments = canonical.replace(b"P5\n", b"P5\n# a comment line\n", 1)
        assert write_pgm(read_pgm(with_comments)) == canonical

    def test_p2_ascii(self):
        data = b"P2\n3 2\n255\n0 10 20\n30 40 255\n"
        assert read_pgm(data).tolist() == [[0, 10, 20], [30, 40, 255]]

    def test_p2_matches_p5(self, rng):
        grid = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
        ascii_body = "\n".join(" ".join(str(v) for v in row) for row in grid.tolist())
        p2 = f"P2\n6 4\n255\n{ascii_body}\n".encode()
        assert (read_pgm(p2) == grid).all()

    def test_wrong_magic(self):
        with pytest.raises(PgmError):
            read_pgm(b"P6\n2 1\n255\n\x00\xff")

    def test_bad_maxval(self):
        with pytest.raises(PgmError, match="maxval"):
            read_pgm(b"P5\n2 1\n128\n\x00\xff")

    def test_truncated_payload_reports_offset(self):
        data = b"P5\n4 4\n255\nabc"
        with pytest.raises(PgmError) as err:
            read_pgm(data)
        assert err.value.offset == len(data)

    def test_non_uint8_grid_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(np.zeros((2, 3), dtype=np.int64))

    def test_truncated_header(self):
        with pytest.raises(PgmError):
            read_pgm(b"P5\n2")

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, w, h, seed):
        grid = np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.uint8)
        assert (read_pgm(write_pgm(grid)) == grid).all()


class TestMaskPgm:
    def test_all_true_payload(self):
        mask = BinaryMask(np.ones((2, 2), dtype=bool))
        data = mask_to_pgm(mask)
        assert data.endswith(b"\xff\xff\xff\xff")

    def test_intermediate_value_rejected_with_index(self):
        data = write_pgm(np.array([[0, 255], [128, 255]], dtype=np.uint8))
        with pytest.raises(MaskValueError) as err:
            pgm_to_mask(data)
        assert err.value.index == 2

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_round_trip_random_masks(self, w, h, seed):
        cells = np.random.default_rng(seed).random((h, w)) < 0.5
        mask = BinaryMask(cells)
        back = pgm_to_mask(mask_to_pgm(mask))
        assert (back.cells == cells).all()


class TestOverlay:
    def test_empty_mask_is_gray_triplication(self, rng):
        gray = rng.integers(0, 256, size=(20, 30)).astype(np.uint8)
        img = normalize(gray)
        mask = BinaryMask(np.zeros((20, 30), dtype=bool))
        out = render_overlay(img, mask)
        assert (out.pixels == np.repeat(gray[:, :, None], 3, axis=2)).all()

    def test_full_mask_tints_every_pixel(self):
        img = GrayImage(np.full((6, 6), 0.5))
        mask = BinaryMask(np.ones((6, 6), dtype=bool))
        out = render_overlay(img, mask)
        # green channel raised, red/blue lowered everywhere
        assert (out.pixels[:, :, 1] > out.pixels[:, :, 0]).all()

    def test_known_blend_arithmetic(self):
        gray_val = 100
        img = normalize(np.full((4, 4), gray_val, dtype=np.uint8))
        cells = np.zeros((4, 4), dtype=bool)
        cells[2, 2] = True
        out = render_overlay(img, BinaryMask(cells))
        expected = (
            round(0.6 * gray_val),
            round(0.6 * gray_val + 0.4 * 255),
            round(0.6 * gray_val),
        )
        assert tuple(out.pixels[2, 2]) == expected
        assert tuple(out.pixels[0, 0]) == (gray_val, gray_val, gray_val)

    def test_untinted_pixels_unchanged_outside_mask_and_caption(self, rng):
        gray = rng.integers(0, 256, size=(32, 40)).astype(np.uint8)
        img = normalize(gray)
        cells = rng.random((32, 40)) < 0.3
        out = render_overlay(img, BinaryMask(cells), caption="MT=1.00")
        untouched = ~cells
        untouched[:9, :] = False  # caption band may change
        base = np.repeat(gray[:, :, None], 3, axis=2)
        assert (out.pixels[untouched] == base[untouched]).all()

    def test_caption_fills_top_band(self):
        img = GrayImage(np.full((20, 60), 0.5))
        mask = BinaryMask(np.zeros((20, 60), dtype=bool))
        out = render_overlay(img, mask, caption="A=1")
        assert (out.pixels[0, :, :] == 0).all()  # band painted black
        assert (out.pixels[1:8, :, :] == 255).any()  # some glyph pixels lit

    def test_dimension_mismatch(self):
        img = GrayImage(np.zeros((4, 4)))
        mask = BinaryMask(np.zeros((4, 5), dtype=bool))
        with pytest.raises(ValueError):
            render_overlay(img, mask)
