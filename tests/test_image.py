import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermet import image
from layermet.font import FONT_5X7
from layermet.image import (
    BinaryMask,
    GrayImage,
    MaskValueError,
    PgmError,
    RgbImage,
    mask_to_pgm,
    normalize,
    pgm_to_mask,
    read_pgm,
    render_overlay,
    write_pgm,
)
from layermet.measure import orthogonal_report, three_line_report
from layermet.synth import SynthSpec, generate

from conftest import band_mask, reference_overlay_chords, reference_read_pgm, reference_render_overlay, reference_tint
from test_fuzz import BYTES, OPS, _mutate


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

    @pytest.mark.parametrize("raw", [[[0, 256]], [[-1, 0]], [[[0, 1]]], [0], [[0.5]]])
    def test_bad_grid_rejected(self, raw):
        # out of [0, 255], not 2-D, or not integer-valued
        with pytest.raises(ValueError):
            normalize(np.array(raw))

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

    @pytest.mark.parametrize(
        "make, arr",
        [
            (GrayImage, np.linspace(0.0, 1.0, 12).reshape(3, 4)),
            (RgbImage, np.arange(36, dtype=np.uint8).reshape(3, 4, 3)),
        ],
        ids=["gray", "rgb"],
    )
    def test_constructor_copies_the_callers_array(self, make, arr):
        before = arr.copy()
        value = make(arr)
        pixels = value.pixels
        assert arr.flags.writeable and not pixels.flags.writeable
        assert not np.shares_memory(pixels, arr)
        arr[...] = 0
        assert np.array_equal(value.pixels, before) and value.pixels is pixels

    def test_results_built_in_place_are_locked(self):
        raw = np.arange(12, dtype=np.uint8).reshape(3, 4)
        gray = normalize(raw)
        rgb = render_overlay(gray, BinaryMask(raw > 5))
        assert not gray.pixels.flags.writeable and not rgb.pixels.flags.writeable
        assert np.array_equal(gray.pixels, raw / 255.0) and raw.flags.writeable


@pytest.mark.parametrize(
    "make, arr, message",
    [
        (BinaryMask, np.zeros((2, 2), dtype=np.uint8), "must be boolean"),
        (BinaryMask, np.zeros(4, dtype=bool), "2-D grid"),
        (RgbImage, np.zeros((2, 2), dtype=np.uint8), r"shape \(h, w, 3\)"),
        (RgbImage, np.zeros((2, 2, 3)), "must be uint8"),
    ],
)
def test_mask_and_rgb_reject_bad_arrays(make, arr, message):
    with pytest.raises(ValueError, match=message):
        make(arr)


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

    @pytest.mark.parametrize("data", [b"P5\n0 1\n255\n", b"P2\n0 1\n255\n"])
    def test_zero_width_rejected(self, data):
        with pytest.raises(PgmError, match="dimensions must be positive, got 0x1") as err:
            read_pgm(data)
        assert err.value.offset == 3

    def test_p5_payload_needs_a_whitespace_byte(self):
        data = b"P5\n1 1\n255"
        with pytest.raises(PgmError, match="whitespace byte") as err:
            read_pgm(data)
        assert err.value.offset == len(data)

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P2\n2 1\n255\n0 +0\n", "bad pixel token b'+0'", 13),
            (b"P2\n2 1\n255\n-0 0\n", "bad pixel token b'-0'", 11),
            (b"P2\n2 1\n255\n0 2_5_5\n", "bad pixel token b'2_5_5'", 13),
            (b"P2\n+4 1\n255\n0 0 0 0\n", "bad width token b'+4'", 3),
            (b"P5\n1 4_0\n255\n", "bad height token b'4_0'", 5),
            (b"P5\n1 1\n+255\n\x00", "bad maxval token b'+255'", 7),
        ],
        ids=["plus-pixel", "minus-pixel", "underscore-pixel", "plus-width", "underscore-height", "plus-maxval"],
    )
    def test_sign_or_underscore_is_a_bad_token(self, data, message, offset):
        with pytest.raises(PgmError) as err:
            read_pgm(data)
        assert str(err.value) == f"{message} (byte {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "data, outcome",
        [
            (b"P2\n1 1\n255\n" + b"0" * 4400 + b"7\n", ((1, 1), b"\x07")),
            (b"P2\n" + b"0" * 4400 + b"1 1\n255\n7\n", ((1, 1), b"\x07")),
            (
                b"P2\n1 1\n255\n1" + b"0" * 4400 + b"\n",
                (PgmError, "pixel value 1" + "0" * 4400 + " out of range (byte 11)", 11),
            ),
        ],
        ids=["zero-padded-pixel", "zero-padded-width", "long-pixel-out-of-range"],
    )
    def test_long_numbers_read_the_same_at_any_int_digit_limit(self, data, outcome):
        limit = sys.get_int_max_str_digits()
        try:
            outcomes = []
            for digits in (4300, 0):
                sys.set_int_max_str_digits(digits)
                outcomes.append(_outcome(read_pgm, data))
        finally:
            sys.set_int_max_str_digits(limit)
        assert outcomes == [outcome, outcome]

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, w, h, seed):
        grid = np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.uint8)
        assert (read_pgm(write_pgm(grid)) == grid).all()


# P2 pixel tokens: values in range; digit runs with leading zeros, out of
# range, or longer than int()'s digit limit; and bad tokens, which hold a sign,
# an underscore, a '#' or another byte that is not a digit.
P2_TOKENS = st.one_of(
    st.integers(0, 255).map(lambda v: str(v).encode()),
    st.sampled_from(
        [b"+5", b"-0", b"-3", b"1_0", b"_1", b"1__0", b"0000255", b"0001000", b"256", b"99999",
         b"00", b"12#", b"7x", b"#", b"\xff", b"\x00", b"1" + b"0" * 700, b"0" * 4301]
    ),
)
# Separators: whitespace of every kind, comments at a token start, and a bare
# '#' or "#x" that continues the token before it.
P2_SEPARATORS = st.sampled_from(
    [b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\r\n", b"  \n", b" # note\n", b"\n#\n#\n", b" #", b"#x ", b""]
)


@st.composite
def p2_files(draw) -> bytes:
    """A P2 file whose body has a token or two fewer or more than its header
    asks for, cut short at a random byte one time in four."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    body = bytearray(f"P2\n{w} {h}\n255".encode())
    for _ in range(max(0, w * h + draw(st.integers(-2, 2)))):
        body += draw(P2_SEPARATORS) + draw(P2_TOKENS)
    body += draw(P2_SEPARATORS)
    if draw(st.integers(0, 3)) == 0:
        del body[draw(st.integers(0, len(body))) :]
    return bytes(body)


def _outcome(parse, data: bytes):
    try:
        grid = parse(data)
    except PgmError as exc:
        return type(exc), str(exc), exc.offset
    return grid.shape, grid.tobytes()


class TestP2Oracle:
    """`read_pgm` against the per-token P2 reader it replaced."""

    @settings(max_examples=600)
    @given(p2_files(), st.lists(st.tuples(OPS, st.integers(0, 64), BYTES), max_size=3))
    def test_equals_per_token_reader(self, data, edits):
        data = _mutate(data, edits)
        assert _outcome(read_pgm, data) == _outcome(reference_read_pgm, data)

    def test_first_bad_token_comes_before_a_short_payload(self):
        with pytest.raises(PgmError, match="bad pixel token") as err:
            read_pgm(b"P2\n2 2\n255\n0 7x 255    ")
        assert err.value.offset == 13


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

    @pytest.mark.parametrize("height, width", [(1, 22), (2, 22), (5, 22), (40, 22), (40, 60)])
    def test_caption_pixels_follow_font(self, height, width):
        # At width 22 the fourth glyph would span columns 19-23, so it is left out.
        caption = "MT=1.5%"
        out = render_overlay(GrayImage(np.full((height, width), 0.5)), BinaryMask(np.zeros((height, width), bool)),
                             caption=caption)
        band = min(9, height)
        lit = np.zeros((band, width), dtype=bool)
        for i, ch in enumerate(caption):
            x = 1 + 6 * i
            if x + 5 > width:
                break
            for gy, row in enumerate(FONT_5X7[ch]):
                for gx, c in enumerate(row):
                    if c == "1" and 1 + gy < height:
                        lit[1 + gy, x + gx] = True
        expected = np.where(lit, 255, 0).astype(np.uint8)
        assert (out.pixels[:band] == expected[:, :, None]).all()
        assert (out.pixels[band:] == 128).all()

    @pytest.mark.parametrize("estimator", [orthogonal_report, three_line_report])
    @pytest.mark.parametrize(
        "mask",
        [
            band_mask(100, 20, 29, height=64),
            band_mask(32, 8, 14, height=24),  # 18 chords, fewer than the 20 drawn at most
            generate(SynthSpec(width=128, height=96, thickness=11, tilt_deg=24, curvature=3, seed=2)).truth_mask,
        ],
        ids=["flat", "short", "tilted"],
    )
    def test_chords_are_picked_lines_clipped_to_mask(self, mask, estimator, rng, monkeypatch):
        report = estimator(mask)
        drawn, line = [], image._bresenham

        def recording(x0, y0, x1, y1):
            drawn.append((x0, y0, x1, y1))
            return line(x0, y0, x1, y1)

        gray = normalize(rng.integers(0, 256, size=mask.cells.shape).astype(np.uint8))
        plain = render_overlay(gray, mask).pixels
        monkeypatch.setattr(image, "_bresenham", recording)
        out = render_overlay(gray, mask, report=report).pixels
        ends, pixels = reference_overlay_chords(report, mask.cells)
        assert len(drawn) == min(20, report.n)
        assert drawn == ends
        blackened = tuple(np.array(sorted(pixels)).T)
        assert pixels and plain[blackened].any(axis=-1).all()  # tinted pixels are never black
        expected = plain.copy()
        expected[blackened] = 0
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("caption", ["", "MT=10.00 SD=0.00"])
    @pytest.mark.parametrize("with_report", [False, True], ids=["plain", "chords"])
    @pytest.mark.parametrize("cells", ["empty", "full", "random", "band"])
    def test_tint_table_matches_float_reference(self, cells, with_report, caption):
        # A ramp over every gray level, so each entry of the tint table is read.
        gray = normalize((np.arange(64 * 100) % 256).reshape(64, 100).astype(np.uint8))
        band = band_mask(100, 20, 29, height=64)
        masks = {
            "empty": np.zeros((64, 100), dtype=bool),
            "full": np.ones((64, 100), dtype=bool),
            "random": np.random.default_rng(7).random((64, 100)) < 0.5,
            "band": band.cells,
        }
        mask = BinaryMask(masks[cells])
        report = orthogonal_report(band) if with_report else None
        out = render_overlay(gray, mask, report=report, caption=caption).pixels
        expected = reference_render_overlay(gray, mask, report=report, caption=caption)
        assert out.dtype == expected.dtype and np.array_equal(out, expected)

    @settings(max_examples=200)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_gather_equals_repeat_and_scatter(self, h, w, density, seed):
        # density 0 and 1 give the empty and the full mask
        rng = np.random.default_rng(seed)
        gray = GrayImage(rng.random((h, w)))
        cells = rng.random((h, w)) < density
        out = render_overlay(gray, BinaryMask(cells)).pixels
        expected = reference_tint(gray.to_u8(), cells)
        assert out.dtype == expected.dtype and np.array_equal(out, expected)

    def test_dimension_mismatch(self):
        img = GrayImage(np.zeros((4, 4)))
        mask = BinaryMask(np.zeros((4, 5), dtype=bool))
        with pytest.raises(ValueError):
            render_overlay(img, mask)
