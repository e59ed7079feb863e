"""Data pipeline: tile planning, annotation remapping, splits, label and
image IO, and the end-to-end tiling command."""
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


class TestImageIO:
    def test_ppm_roundtrip(self, rng, tmp_path):
        img = (rng.random((16, 24, 3)) * 255).astype(np.uint8)
        path = tmp_path / "x.ppm"
        D.write_ppm(path, img)
        assert np.array_equal(D.read_ppm(path), img)

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


def _make_png(img, color_type, idat_size=None):
    h, w = img.shape[:2]
    raw = b"".join(b"\x00" + img[y].tobytes() for y in range(h))
    return _png_wrap(raw, w, h, color_type, idat_size)


class TestCoco:
    def test_bbox_conversion(self, tmp_path):
        import json
        doc = {"images": [{"id": 1, "file_name": "a.ppm", "width": 100, "height": 200}],
               "annotations": [{"image_id": 1, "category_id": 3, "bbox": [10, 20, 30, 40]}]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        (a,) = D.read_coco(p)["a.ppm"]
        assert a.class_id == 3
        assert (a.cx, a.cy, a.w, a.h) == pytest.approx((0.25, 0.2, 0.3, 0.2))


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

    def test_threaded_matches_serial(self, rng, tmp_path):
        src = tmp_path / "src"
        for i in range(4):
            self._write_source(src, rng, name=f"s{i}")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        D.tile_dataset(src, out_a, seed=0, threads=1)
        D.tile_dataset(src, out_b, seed=0, threads=3)
        assert (out_a / "manifest.csv").read_text() == (out_b / "manifest.csv").read_text()
