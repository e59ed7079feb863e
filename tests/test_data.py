"""Data pipeline: tile planning, annotation remapping, splits, label and
image IO, and the end-to-end tiling command."""
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fabme import data as D
from fabme.data import Annotation


class TestPlanTiles:
    def test_typical_source_dims(self):
        assert len(D.plan_tiles(2446, 1000)) == 8

    def test_exact_fit(self):
        assert D.plan_tiles(640, 640) == [(0, 0)]

    def test_inward_shift(self):
        assert D.plan_tiles(700, 640) == [(0, 0), (60, 0)]

    def test_small_image_single_tile(self):
        assert D.plan_tiles(300, 200) == [(0, 0)]

    def test_grid_is_ceil_product(self):
        for w, h in ((1281, 641), (640, 1281), (1, 1), (1920, 1080)):
            tiles = D.plan_tiles(w, h)
            assert len(tiles) == -(-w // 640) * (-(-h // 640))

    def test_tiles_stay_in_bounds_when_large(self):
        for ox, oy in D.plan_tiles(2446, 1000):
            assert 0 <= ox <= 2446 - 640 and 0 <= oy <= 1000 - 640


class TestRemap:
    def test_contained_box_renormalized_only(self):
        a = Annotation(3, 0.25, 0.25, 0.1, 0.1)
        out = D.remap_annotations([a], (0, 0), 640, 1280, 1280)
        assert len(out) == 1
        b = out[0]
        assert b.class_id == 3
        assert b.cx == pytest.approx(0.5) and b.w == pytest.approx(0.2)

    def test_outside_box_dropped(self):
        a = Annotation(1, 0.1, 0.1, 0.05, 0.05)
        assert D.remap_annotations([a], (640, 0), 640, 1280, 1280) == []

    def test_straddling_70_30_kept_in_both(self):
        src_w, src_h = 1280, 640
        a = Annotation(1, 620 / src_w, 0.5, 100 / src_w, 100 / src_h)
        left = D.remap_annotations([a], (0, 0), 640, src_w, src_h)
        right = D.remap_annotations([a], (640, 0), 640, src_w, src_h)
        assert len(left) == 1 and len(right) == 1
        assert left[0].w == pytest.approx(70 / 640)
        assert right[0].w == pytest.approx(30 / 640)

    def test_below_area_threshold_dropped(self):
        src_w, src_h = 1280, 640
        # box spans x 560..660: only 20% of the area is in the right tile
        a = Annotation(1, 610 / src_w, 0.5, 100 / src_w, 100 / src_h)
        assert D.remap_annotations([a], (640, 0), 640, src_w, src_h) == []

    def test_sliver_dropped_by_min_px(self):
        src_w, src_h = 1280, 640
        a = Annotation(1, 639.5 / src_w, 0.5, 2.0 / src_w, 100 / src_h)
        out = D.remap_annotations([a], (640, 0), 640, src_w, src_h)
        assert out == []  # 1 px wide in the right tile

    def test_remapped_boxes_inside_unit_frame(self, rng):
        src_w, src_h = 1500, 900
        anns = []
        for _ in range(40):
            w, h = rng.uniform(0.01, 0.2, 2)
            cx = rng.uniform(w / 2, 1 - w / 2)
            cy = rng.uniform(h / 2, 1 - h / 2)
            anns.append(Annotation(int(rng.integers(1, 21)), cx, cy, w, h))
        for origin in D.plan_tiles(src_w, src_h):
            for b in D.remap_annotations(anns, origin, 640, src_w, src_h):
                assert 0 <= b.cx <= 1 and 0 <= b.cy <= 1
                assert 0 < b.w <= 1 and 0 < b.h <= 1

    def test_job_keeps_only_annotated_tiles(self):
        anns = [Annotation(1, 0.1, 0.1, 0.05, 0.05)]
        job = D.plan_tile_job("img0", 2446, 1000, anns)
        assert len(job.origins) == 1
        assert all(len(a) >= 1 for a in job.annotations)

    def test_no_silent_annotation_loss(self, rng):
        # every source box retained at >= 0.25 area (and >= 2 px) in some
        # tile appears in the job at least that many times
        src_w, src_h = 1700, 900
        anns = []
        for _ in range(60):
            w, h = rng.uniform(0.005, 0.3, 2)
            anns.append(Annotation(int(rng.integers(1, 21)),
                                   rng.uniform(w / 2, 1 - w / 2),
                                   rng.uniform(h / 2, 1 - h / 2), w, h))
        origins = D.plan_tiles(src_w, src_h)
        expected = 0
        for a in anns:
            x1, y1, x2, y2 = a.corners(src_w, src_h)
            area = (x2 - x1) * (y2 - y1)
            for ox, oy in origins:
                cw = min(x2, ox + 640) - max(x1, ox)
                ch = min(y2, oy + 640) - max(y1, oy)
                if cw >= 2 and ch >= 2 and cw * ch >= 0.25 * area:
                    expected += 1
        job = D.plan_tile_job("s", src_w, src_h, anns)
        kept = sum(len(t) for t in job.annotations)
        assert kept >= expected


class TestSplit:
    def test_ten_images_split_8_2(self):
        tr, va = D.split_dataset(list(range(10)), seed=0)
        assert len(tr) == 8 and len(va) == 2

    def test_same_seed_identical(self):
        a = D.split_dataset(list(range(57)), seed=9)
        b = D.split_dataset(list(range(57)), seed=9)
        assert a == b

    def test_different_seed_differs(self):
        a = D.split_dataset(list(range(57)), seed=1)
        b = D.split_dataset(list(range(57)), seed=2)
        assert a != b

    @pytest.mark.parametrize("n", [1, 2, 5, 23, 100])
    def test_within_one_of_ratio(self, n):
        tr, va = D.split_dataset(list(range(n)), seed=0)
        assert abs(len(va) - n / 5) <= 1 and len(tr) + len(va) == n


class TestLabels:
    def test_direct_mapping(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0 0.5 0.5 0.1 0.2\n")
        (a,) = D.read_labels(p)
        assert a == Annotation(1, 0.5, 0.5, 0.1, 0.2)

    def test_out_of_range_cx_names_field(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("5 1.5 0.5 0.1 0.1\n")
        with pytest.raises(ValueError, match="cx"):
            D.read_labels(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0 0.5 0.5 0.1 0.2\n0 0.5 0.5\n")
        with pytest.raises(ValueError, match=":2"):
            D.read_labels(p)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.001, max_value=1.0),
            st.floats(min_value=0.001, max_value=1.0),
        ), min_size=0, max_size=8))
    def test_roundtrip_lossless_at_6dp(self, rows):
        import tempfile
        from pathlib import Path
        anns = [Annotation(c, round(cx, 6), round(cy, 6), round(w, 6), round(h, 6))
                for c, cx, cy, w, h in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.txt"
            D.write_labels(path, anns)
            back = D.read_labels(path)
        assert len(back) == len(anns)
        for a, b in zip(anns, back):
            assert a.class_id == b.class_id
            for f in ("cx", "cy", "w", "h"):
                assert getattr(a, f) == pytest.approx(getattr(b, f), abs=5e-7)


class TestKeyValueConfig:
    """GraphSpec.from_file and TrainConfig.from_file share one reader and
    report every malformed line with the file and line number."""

    @pytest.fixture(params=["graph", "train"])
    def reader(self, request):
        from fabme.graph import GraphSpec
        from fabme.train import TrainConfig
        return {"graph": (GraphSpec.from_file, "graph config"),
                "train": (TrainConfig.from_file, "train config")}[request.param]

    @pytest.mark.parametrize("text, error", [
        ("# comment\n\nseed=3\nseed 4\n", r":4: expected key=value, got 'seed 4'"),
        ("seed=1\nbogus=2\n", r":2: unknown {kind} key 'bogus'"),
        ("\n  seed = x\n", r":2: seed: invalid literal for int"),
    ])
    def test_errors_name_the_line(self, reader, tmp_path, text, error):
        from_file, kind = reader
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) + error.format(kind=kind)):
            from_file(path)

    @pytest.mark.parametrize("key", ["box_weight", "obj_weight", "cls_weight", "obj_pos_weight"])
    def test_loss_weights_are_not_train_keys(self, tmp_path, key):
        # the loss weights are constants of fabme.train, not settings
        from fabme.train import TrainConfig
        path = tmp_path / "c.cfg"
        path.write_text(f"seed=1\n{key}=2.0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + f":2: unknown train config key '{key}'"):
            TrainConfig.from_file(path)

    def test_blank_lines_comments_and_spaces(self, reader, tmp_path):
        from_file, _ = reader
        path = tmp_path / "c.cfg"
        path.write_text("# seed=9\n\n  seed = 7  \n")
        assert from_file(path).seed == 7


class TestImageIO:
    def test_ppm_roundtrip(self, rng, tmp_path):
        img = (rng.random((16, 24, 3)) * 255).astype(np.uint8)
        path = tmp_path / "x.ppm"
        D.write_ppm(path, img)
        assert np.array_equal(D.read_ppm(path), img)

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (0, 0), (0, 4)])
    def test_ppm_of_an_empty_image_refused(self, shape, tmp_path):
        # read_ppm rejects a 0-pixel size, so write_ppm writes none
        path = tmp_path / "e.ppm"
        with pytest.raises(ValueError, match="write_ppm: bad image size"):
            D.write_ppm(path, np.zeros(shape, dtype=np.uint8))
        assert not path.exists()

    def test_ppm_gray_replicated(self, rng, tmp_path):
        img = (rng.random((8, 8)) * 255).astype(np.uint8)
        path = tmp_path / "g.ppm"
        D.write_ppm(path, img)
        back = D.read_ppm(path)
        assert np.array_equal(back[:, :, 0], img) and np.array_equal(back[:, :, 1], img)

    def test_p5_gray_read(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + img.tobytes())
        back = D.read_ppm(path)
        assert np.array_equal(back[:, :, 0], img)

    @pytest.mark.parametrize("color_type,channels", [(0, 1), (2, 3), (6, 4)])
    def test_png_read_filters(self, rng, tmp_path, color_type, channels):
        img = (rng.random((6, 7, channels)) * 255).astype(np.uint8)
        path = tmp_path / "t.png"
        path.write_bytes(_make_png(img, color_type))
        back = D.read_png(path)
        if channels == 1:
            assert np.array_equal(back[:, :, 0], img[:, :, 0])
        else:
            assert np.array_equal(back, img[:, :, :3])

    def test_png_many_idat_chunks(self, rng, tmp_path):
        img = (rng.random((9, 11, 3)) * 255).astype(np.uint8)
        one, many = tmp_path / "one.png", tmp_path / "many.png"
        one.write_bytes(_make_png(img, 2))
        many.write_bytes(_make_png(img, 2, idat_size=7))
        assert many.stat().st_size > one.stat().st_size + 12 * 20  # over 20 IDAT chunks
        assert np.array_equal(D.read_png(many), D.read_png(one))
        assert np.array_equal(D.read_png(one), img)

    def test_png_up_and_sub_filters(self, tmp_path):
        img = np.tile(np.arange(8, dtype=np.uint8)[None, :, None] * 30, (4, 1, 3))
        raw = b""
        for y in range(4):
            ftype = [0, 1, 2, 4][y]
            line = img[y].tobytes()
            if ftype == 0:
                raw += b"\x00" + line
            elif ftype == 1:
                arr = np.frombuffer(line, np.uint8).astype(np.int16).reshape(-1)
                enc = arr.copy()
                enc[3:] = (arr[3:] - arr[:-3]) % 256
                raw += b"\x01" + enc.astype(np.uint8).tobytes()
            elif ftype == 2:
                prev = np.frombuffer(img[y - 1].tobytes(), np.uint8).astype(np.int16)
                arr = np.frombuffer(line, np.uint8).astype(np.int16)
                raw += b"\x02" + ((arr - prev) % 256).astype(np.uint8).tobytes()
            else:  # paeth with identical prev row reduces to up for this data
                prev = np.frombuffer(img[y - 1].tobytes(), np.uint8).astype(np.int16)
                arr = np.frombuffer(line, np.uint8).astype(np.int16)
                enc = arr.copy()
                for i in range(len(arr)):
                    left = int(enc[i - 3]) if i >= 3 else 0
                    # note: paeth uses RECONSTRUCTED left; rows identical so left==arr[i-3]
                    left = int(arr[i - 3]) if i >= 3 else 0
                    ul = int(prev[i - 3]) if i >= 3 else 0
                    enc[i] = (arr[i] - _paeth_ref(left, int(prev[i]), ul)) % 256
                raw += b"\x04" + enc.astype(np.uint8).tobytes()
        path = tmp_path / "f.png"
        path.write_bytes(_png_wrap(raw, 8, 4, 2))
        assert np.array_equal(D.read_png(path), img)

    def test_extract_tile_replicates_border(self):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        t = D.extract_tile(arr, (0, 0), 5)
        assert t.shape == (5, 5)
        assert t[4, 4] == arr[2, 3] and t[3, 0] == arr[2, 0]


def _paeth_ref(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _png_wrap(raw, w, h, color_type, idat_size=None):
    """A PNG file around filtered rows; idat_size splits the compressed
    stream into IDAT chunks of that many bytes."""
    def chunk(typ, body):
        return struct.pack(">I", len(body)) + typ + body + struct.pack(">I", zlib.crc32(typ + body))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    z = zlib.compress(raw)
    step = idat_size or len(z)
    idat = b"".join(chunk(b"IDAT", z[i:i + step]) for i in range(0, len(z), step))
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + idat + chunk(b"IEND", b"")


def _with_crcs(png):
    """png with every chunk's CRC recomputed, so an edit inside a chunk
    reaches the checks behind the CRC check."""
    out, pos = bytearray(png), 8
    while pos + 12 <= len(out):
        (length,) = struct.unpack_from(">I", out, pos)
        end = pos + 8 + length
        struct.pack_into(">I", out, end, zlib.crc32(out[pos + 4:end]))
        pos = end + 4
    return bytes(out)


def _make_png(img, color_type, idat_size=None):
    h, w = img.shape[:2]
    raw = b"".join(b"\x00" + img[y].tobytes() for y in range(h))
    return _png_wrap(raw, w, h, color_type, idat_size)


def _filter_rows(rows, bpp):
    """All five PNG filters of every row of (H, stride) uint8 pixels, built
    from the original pixels: (5, H, stride) uint8, indexed by filter type."""
    up = np.zeros_like(rows)
    up[1:] = rows[:-1]
    left = np.zeros_like(rows)
    left[:, bpp:] = rows[:, :-bpp]
    ul = np.zeros_like(rows)
    ul[1:, bpp:] = rows[:-1, :-bpp]
    a, b, c = (v.astype(np.int16) for v in (left, up, ul))
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, ul))
    average = ((a + b) // 2).astype(np.uint8)
    return np.stack([rows, rows - left, rows - up, rows - average, rows - paeth])


_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _filtered_png(img, color_type, ftypes):
    """PNG bytes of (H, W, channels) uint8 pixels, row r filtered with
    filter type ftypes[r]."""
    h, w, channels = img.shape
    filtered = _filter_rows(img.reshape(h, w * channels), channels)
    raw = b"".join(bytes([t]) + filtered[t, r].tobytes() for r, t in enumerate(ftypes))
    return _png_wrap(raw, w, h, color_type)


def _as_rgb(img):
    """What read_png returns for (H, W, channels) pixels: gray replicated,
    alpha dropped."""
    return np.repeat(img[:, :, :1], 3, axis=2) if img.shape[2] <= 2 else img[:, :, :3]


class TestPngFilters:
    """Round trips through every filter type, each row's type drawn at
    random; rows of a tall image span several decode bands."""

    @pytest.mark.parametrize("color_type", [0, 2, 4, 6])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (2, 2), (23, 5), (9, 17)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_roundtrip_bit_exact(self, tmp_path, color_type, shape):
        rng = np.random.default_rng(sum(shape) * 10 + color_type)
        img = rng.integers(0, 256, (*shape, _CHANNELS[color_type]), dtype=np.uint8)
        ftypes = rng.integers(0, 5, shape[0])
        path = tmp_path / "f.png"
        path.write_bytes(_filtered_png(img, color_type, ftypes))
        assert np.array_equal(D.read_png(path), _as_rgb(img))
        raw = _filter_rows(img.reshape(shape[0], -1), img.shape[2])[ftypes, np.arange(shape[0])]
        decoded = D._unfilter(raw.reshape(img.shape), ftypes.astype(np.uint8))
        assert np.array_equal(decoded, img)  # alpha too

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(1, 20), w=st.integers(1, 20), color_type=st.sampled_from([0, 2, 4, 6]),
           levels=st.sampled_from([2, 4, 256]), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_random(self, h, w, color_type, levels, seed):
        """Few levels force Paeth ties, where the spec's a, b, c order decides."""
        import tempfile
        from pathlib import Path
        rng = np.random.default_rng(seed)
        img = (rng.integers(0, levels, (h, w, _CHANNELS[color_type])) * (255 // (levels - 1))).astype(np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.png"
            path.write_bytes(_filtered_png(img, color_type, rng.integers(0, 5, h)))
            assert np.array_equal(D.read_png(path), _as_rgb(img))

    def test_paeth_ties_take_b_before_c(self, tmp_path):
        # pixel (1, 0) decodes to (246 + 10) & 0xFF = 0; then pixel (1, 1)
        # has a = 0, b = 30, c = 10: pb = pc = 10 < pa = 20, so b, not c
        raw = b"\x00" + bytes([10, 30]) + b"\x04" + bytes([246, 0])
        path = tmp_path / "t.png"
        path.write_bytes(_png_wrap(raw, 2, 2, 0))
        assert D.read_png(path)[1, :, 0].tolist() == [0, 30]

    def test_tall_thin_memory_bounded(self, tmp_path):
        import tracemalloc
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (3000, 4, 3), dtype=np.uint8)
        path = tmp_path / "tall.png"
        path.write_bytes(_filtered_png(img, 2, rng.integers(0, 5, 3000)))
        tracemalloc.start()
        try:
            back = D.read_png(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, img)
        assert peak < 16 * img.nbytes  # one diagonal-major band of 3000 rows would take 54 MB


    @pytest.mark.parametrize("color_type", [0, 2, 6])
    @pytest.mark.parametrize("shape", [(70, 5), (150, 70)], ids=["70x5", "150x70"])
    @pytest.mark.parametrize("ftype", range(5), ids=["none", "sub", "up", "average", "paeth"])
    def test_one_filter_type_spans_bands(self, ftype, shape, color_type):
        # bands of max(w, 64) rows: 64 + 6 rows, and 70 + 70 + 10
        rng = np.random.default_rng(ftype * 10 + color_type)
        img = rng.integers(0, 256, (*shape, _CHANNELS[color_type]), dtype=np.uint8)
        ftypes = np.full(shape[0], ftype)
        raw = _filter_rows(img.reshape(shape[0], -1), img.shape[2])[ftype]
        assert np.array_equal(D._unfilter(raw.reshape(img.shape), ftypes.astype(np.uint8)), img)

    @settings(max_examples=80, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=40),
           w=st.sampled_from([1, 2, 3, 5, 8, 64, 65, 70]), color_type=st.sampled_from([0, 2, 4, 6]),
           levels=st.sampled_from([2, 256]), seed=st.integers(0, 2**32 - 1))
    def test_filter_runs(self, runs, w, color_type, levels, seed):
        """Runs of 1-6 rows of one type, in bands of max(w, 64) rows, so
        that segments start, end and hold Paeth rows at band edges."""
        ftypes = np.array([t for t, n in runs for _ in range(n)])
        h = len(ftypes)
        rng = np.random.default_rng(seed)
        img = (rng.integers(0, levels, (h, w, _CHANNELS[color_type])) * (255 // (levels - 1))).astype(np.uint8)
        raw = _filter_rows(img.reshape(h, -1), img.shape[2])[ftypes, np.arange(h)]
        assert np.array_equal(D._unfilter(raw.reshape(img.shape), ftypes.astype(np.uint8)), img)

    def test_paeth_segments_before_others(self):
        # Paeth segments first in row order, then 150 segments of Average
        # and Up rows: 450 slots of 3 bytes, enough to sweep the Paeth tail
        # apart from them
        ftypes = np.array([4, 3, 1] * 50 + [3, 2, 1] * 150)
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (600, 600, 3), dtype=np.uint8)
        raw = _filter_rows(img.reshape(600, -1), 3)[ftypes, np.arange(600)]
        assert np.array_equal(D._unfilter(raw.reshape(img.shape), ftypes.astype(np.uint8)), img)

    def test_direct_rows_build_no_sweep(self):
        # None, Sub and Up rows decode straight into the output; a sweep of
        # this square band would take a work array twice the image
        import tracemalloc
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (256, 256, 3), dtype=np.uint8)
        ftypes = rng.integers(0, 3, 256)
        raw = _filter_rows(img.reshape(256, -1), 3)[ftypes, np.arange(256)].reshape(img.shape)
        ftypes = ftypes.astype(np.uint8)
        tracemalloc.start()
        try:
            back = D._unfilter(raw, ftypes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, img)
        assert peak < 1.5 * img.nbytes


class TestHostileImages:
    """Malformed image files raise ValueError, before any allocation the
    file's own size does not justify."""

    def _png(self):
        img = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
        return _filtered_png(img, 2, [0, 1, 3, 4]), img

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_png_truncated_or_flipped(self, data):
        # every chunk is covered by its CRC, so no truncation or single-byte
        # flip decodes
        import tempfile
        from pathlib import Path
        png, _ = self._png()
        if data.draw(st.booleans(), label="truncate"):
            png = png[:data.draw(st.integers(0, len(png) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(png) - 1), label="pos")
            png = png[:pos] + bytes([png[pos] ^ data.draw(st.integers(1, 255), label="xor")]) + png[pos + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.png"
            path.write_bytes(png)
            with pytest.raises(ValueError):
                D.read_png(path)

    def test_png_crc_mismatch(self, tmp_path):
        png, img = self._png()
        path = tmp_path / "c.png"
        path.write_bytes(png)
        assert np.array_equal(D.read_png(path), img)
        path.write_bytes(png[:-1] + bytes([png[-1] ^ 1]))  # the IEND CRC
        with pytest.raises(ValueError, match="CRC mismatch in b'IEND'"):
            D.read_png(path)

    @staticmethod
    def _peak(fn, *args):
        import tracemalloc
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                fn(*args)
            return tracemalloc.get_traced_memory()[1], str(info.value)
        finally:
            tracemalloc.stop()

    def test_png_zlib_bomb_stops_at_declared_size(self, tmp_path):
        bomb = _png_wrap(b"\x00" * 50_000_000, 4, 4, 2)  # 50 MB of zeros, a 4x4 header
        path = tmp_path / "bomb.png"
        path.write_bytes(bomb)
        assert len(bomb) < 100_000
        peak, msg = self._peak(D.read_png, path)
        assert "size mismatch" in msg and peak < 1_000_000

    def test_png_huge_header_small_payload(self, tmp_path):
        path = tmp_path / "big.png"
        path.write_bytes(_png_wrap(b"\x00" * 13, 2**31 - 1, 2**31 - 1, 6))
        peak, msg = self._peak(D.read_png, path)
        assert "size mismatch" in msg and peak < 1_000_000

    @pytest.mark.parametrize("edit,match", [
        (lambda p: _with_crcs(p[:12] + b"IHDX" + p[16:]), "IDAT before IHDR"),
        (lambda p: p[:8] + p[-12:], "no IHDR"),  # IEND alone
        (lambda p: _with_crcs(p[:8] + struct.pack(">I", 12) + p[12:28] + p[29:]), "IHDR"),  # 12-byte IHDR
        (lambda p: p[:-20], "truncated"),
        (lambda p: _with_crcs(p[:16] + struct.pack(">I", 0) + p[20:]), "size 0x4"),
    ])
    def test_png_bad_structure(self, tmp_path, edit, match):
        png, _ = self._png()
        path = tmp_path / "b.png"
        path.write_bytes(edit(png))
        with pytest.raises(ValueError, match=match):
            D.read_png(path)

    def test_png_chunk_shorter_than_declared(self, tmp_path):
        png, _ = self._png()
        idat = png.index(b"IDAT") - 4
        (length,) = struct.unpack(">I", png[idat:idat + 4])
        path = tmp_path / "s.png"
        path.write_bytes(png[:idat] + struct.pack(">I", length + 10**6) + png[idat + 4:])
        with pytest.raises(ValueError, match="truncated"):
            D.read_png(path)

    def test_png_unknown_filter_type(self, tmp_path):
        path = tmp_path / "u.png"
        path.write_bytes(_png_wrap(b"\x05" + b"\x00" * 6, 2, 1, 2))
        with pytest.raises(ValueError, match="filter type 5"):
            D.read_png(path)

    def test_png_corrupt_stream(self, tmp_path):
        png, _ = self._png()
        path = tmp_path / "z.png"
        ihdr_end = 8 + 25
        path.write_bytes(png[:ihdr_end] + struct.pack(">I", 4) + b"IDAT" + b"\xff" * 8 + png[-12:])
        with pytest.raises(ValueError, match="corrupt"):
            D.read_png(path)

    def test_ppm_header_larger_than_file(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n100000 100000\n255\n" + b"\x00" * 12)
        peak, msg = self._peak(D.read_ppm, path)
        assert "truncated" in msg and peak < 1_000_000

    def test_ppm_long_header_token(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n" + b"1" * 1_000_000 + b" 4\n255\n")
        peak, msg = self._peak(D.read_ppm, path)
        assert str(path) in msg and "longer than" in msg and peak < 1_000_000

    def test_ppm_non_numeric_size(self, tmp_path):
        path = tmp_path / "nan.ppm"
        path.write_bytes(b"P6\n12ab 4\n255\n" + b"\x00" * 144)
        peak, msg = self._peak(D.read_ppm, path)
        assert str(path) in msg and "b'12ab' is not a number" in msg and peak < 1_000_000

    @pytest.mark.parametrize("header", [b"P6\n0 4\n255\n", b"P6\n-2 -2\n255\n"])
    def test_ppm_bad_size(self, tmp_path, header):
        path = tmp_path / "z.ppm"
        path.write_bytes(header + b"\x00" * 48)
        with pytest.raises(ValueError, match="size"):
            D.read_ppm(path)

    def test_read_image_is_uint8_and_load_image_scales_it(self, tmp_path):
        png, img = self._png()
        path = tmp_path / "i.png"
        path.write_bytes(png)
        got = D.read_image(path)
        assert got.dtype == np.uint8 and np.array_equal(got, img)
        assert np.array_equal(D.load_image(path), img.astype(np.float64).transpose(2, 0, 1) / 255.0)


class TestTileDataset:
    def _write_source(self, root, rng, name="src0", w=1300, h=700, n_boxes=5):
        (root / "images").mkdir(parents=True, exist_ok=True)
        (root / "labels").mkdir(parents=True, exist_ok=True)
        img = (rng.random((h, w, 3)) * 255).astype(np.uint8)
        D.write_ppm(root / "images" / f"{name}.ppm", img)
        anns = []
        for _ in range(n_boxes):
            bw, bh = rng.uniform(0.02, 0.08, 2)
            cx = rng.uniform(bw / 2, 1 - bw / 2)
            cy = rng.uniform(bh / 2, 1 - bh / 2)
            anns.append(Annotation(int(rng.integers(1, 5)), cx, cy, bw, bh))
        D.write_labels(root / "labels" / f"{name}.txt", anns)
        return anns

    def test_end_to_end(self, rng, tmp_path):
        src = tmp_path / "src"
        for i in range(3):
            self._write_source(src, rng, name=f"src{i}")
        out = tmp_path / "out"
        summary = D.tile_dataset(src, out, seed=0)
        assert summary["n_sources"] == 3
        produced = summary["n_train_tiles"] + summary["n_val_tiles"]
        assert produced >= 1
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        assert manifest[0] == "tile_id,source_id,origin_x,origin_y,n_annotations"
        assert len(manifest) - 1 == produced
        for line in manifest[1:]:
            assert int(line.rsplit(",", 1)[1]) >= 1  # no annotation-free tiles
        stats = (out / "stats.csv").read_text().strip().splitlines()
        assert stats[0] == "class_id,train_imgs,train_anns,val_imgs,val_anns"
        assert len(stats) == 21

    def test_split_units_are_sources(self, rng, tmp_path):
        src = tmp_path / "src"
        for i in range(5):
            self._write_source(src, rng, name=f"s{i}", w=1300, h=700)
        out = tmp_path / "out"
        D.tile_dataset(src, out, seed=1)
        train_stems = {p.stem.rsplit("_", 2)[0] for p in (out / "train" / "images").iterdir()}
        val_stems = {p.stem.rsplit("_", 2)[0] for p in (out / "val" / "images").iterdir()}
        assert not (train_stems & val_stems)

    def test_empty_dir_raises(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="no images"):
            D.tile_dataset(empty, tmp_path / "out")
