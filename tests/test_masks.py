"""Mask operations: positivity, grid resampling, contours, the largest
component's centroid, and PGM round trips."""

import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import open_fds
from segprompt.errors import ContractError
from segprompt import masks as M
from segprompt.masks import StructureId


def mask_from(rows: list[str]) -> np.ndarray:
    return np.array([[ch == "#" for ch in row] for row in rows])


def random_mask(rng, shape=(16, 16), p=0.2):
    return rng.random(shape) < p


# -- reference ops: the whole-mask centroid and the painted components that
# largest_component_centroid replaced in the set-of-marks renderer ---------------


def centroid(m):
    """Arithmetic mean (row, col) of the foreground."""
    rows, cols = np.nonzero(m)
    if rows.size == 0:
        raise ContractError("centroid of an empty mask")
    return float(rows.mean()), float(cols.mean())


def connected_components(m):
    """8-connected components, largest first; ties broken by the smallest
    (row, col) pixel of the component. The runs of M.row_runs, labeled by
    M.run_roots, then each component's runs painted."""
    m = np.asarray(m, dtype=bool)
    h, w = m.shape
    rows, starts, ends, lo, hi = M.row_runs(m)
    if rows.size == 0:
        return []
    label = np.unique(M.run_roots(lo, hi), return_inverse=True)[1]
    # A component's root is its first run, which holds its smallest
    # (row, col) pixel, so a stable sort by size keeps that tie-break.
    sizes = np.bincount(label, weights=ends - starts)
    order = np.argsort(-sizes, kind="stable")
    width = w + 1  # one background column ends every row's last run
    delta = np.zeros(h * width, dtype=np.int64)
    delta[rows * width + starts] = label + 1
    delta[rows * width + ends] = -(label + 1)
    painted = np.cumsum(delta).reshape(h, width)[:, :w]
    return [painted == k + 1 for k in order]


class TestIsPositive:
    def test_all_zero(self):
        assert not M.is_positive(np.zeros((16, 16), dtype=bool))

    def test_single_pixel(self):
        m = np.zeros((16, 16), dtype=bool)
        m[7, 3] = True
        assert M.is_positive(m)

    def test_all_ones(self):
        assert M.is_positive(np.ones((4, 4), dtype=bool))


class TestToGrid:
    def test_all_ones(self):
        assert M.to_grid(np.ones((8, 8), dtype=bool), 4).all()

    def test_single_pixel_sets_single_cell(self):
        m = np.zeros((8, 8), dtype=bool)
        m[5, 2] = True
        grid = M.to_grid(m, 4)
        assert grid.sum() == 1 and grid[1, 0]

    def test_enumerated_windows(self):
        m = np.zeros((4, 4), dtype=bool)
        m[0, 0] = m[3, 3] = True
        grid = M.to_grid(m, 2)
        assert np.array_equal(grid, [[True, False], [False, True]])

    def test_non_divisible_extents(self):
        with pytest.raises(ContractError):
            M.to_grid(np.zeros((6, 6), dtype=bool), 4)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = random_mask(rng, (12, 12), p=rng.random() * 0.2)
            assert M.is_positive(M.to_grid(m, 4)) == M.is_positive(m)


class TestContour:
    def test_isolated_pixel_is_its_own_contour(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        assert np.array_equal(M.contour(m), m)

    def test_solid_block_border(self):
        m = np.zeros((7, 7), dtype=bool)
        m[2:5, 2:5] = True
        ring = M.contour(m)
        # brute-force 4-neighbor scan as the oracle
        expected = np.zeros_like(m)
        for r in range(7):
            for c in range(7):
                if not m[r, c]:
                    continue
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < 7 and 0 <= cc < 7) or not m[rr, cc]:
                        expected[r, c] = True
        assert np.array_equal(ring, expected)
        assert ring.sum() == 8 and not ring[3, 3]

    def test_all_ones_gives_border_ring(self):
        m = np.ones((5, 6), dtype=bool)
        ring = M.contour(m)
        assert ring[0].all() and ring[-1].all() and ring[:, 0].all() and ring[:, -1].all()
        assert not ring[1:-1, 1:-1].any()

    def test_subset_and_idempotent_on_thin_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_mask(rng, (10, 10), 0.3)
            ring = M.contour(m)
            assert not (ring & ~m).any()
        line = np.zeros((8, 8), dtype=bool)
        line[3, 1:7] = True
        assert np.array_equal(M.contour(M.contour(line)), M.contour(line))


class TestCentroid:
    def test_single_pixel(self):
        m = np.zeros((6, 8), dtype=bool)
        m[2, 5] = True
        assert centroid(m) == (2.0, 5.0)

    def test_two_pixel_symmetry(self):
        m = np.zeros((4, 4), dtype=bool)
        m[0, 0] = m[2, 2] = True
        assert centroid(m) == (1.0, 1.0)

    def test_l_shape(self):
        m = mask_from(["#..", "##."])
        r, c = centroid(m)
        assert abs(r - 2 / 3) < 1e-12 and abs(c - 1 / 3) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            centroid(np.zeros((3, 3), dtype=bool))

    def test_centroid_inside_bounding_box(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = random_mask(rng, (9, 9), 0.3)
            if not m.any():
                continue
            r, c = centroid(m)
            rows, cols = np.nonzero(m)
            assert rows.min() <= r <= rows.max()
            assert cols.min() <= c <= cols.max()


def _components_bfs(m):
    """The pixel-by-pixel BFS labeler connected_components replaced: the
    oracle for its output and order."""
    h, w = m.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    comps = []
    for r0, c0 in zip(*np.nonzero(m)):
        if labels[r0, c0] != -1:
            continue
        idx = len(comps)
        comp = np.zeros((h, w), dtype=bool)
        queue = deque([(int(r0), int(c0))])
        labels[r0, c0] = idx
        comp[r0, c0] = True
        while queue:
            r, c = queue.popleft()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and m[rr, cc] and labels[rr, cc] == -1:
                        labels[rr, cc] = idx
                        comp[rr, cc] = True
                        queue.append((rr, cc))
        pixels = list(zip(*np.nonzero(comp)))
        comps.append((int(comp.sum()), min(pixels), comp))
    comps.sort(key=lambda item: (-item[0], item[1]))
    return [comp for _, _, comp in comps]


def _assert_components_match_bfs(m):
    got = connected_components(m)
    want = _components_bfs(m)
    assert len(got) == len(want), m.shape
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == m.shape and a.dtype == np.bool_
        assert np.array_equal(a, b), (m.shape, k)


class TestConnectedComponentsOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.floats(0.05, 0.7),
           st.integers(0, 2 ** 32 - 1))
    def test_random_masks_match_bfs(self, h, w, density, seed):
        _assert_components_match_bfs(np.random.default_rng(seed).random((h, w)) < density)

    @pytest.mark.parametrize("rows", [
        ["#.#", ".#.", "#.#"],             # an X: diagonal links only
        ["#...", ".#..", "..#.", "...#"],  # one diagonal line
        ["...#", "..#.", ".#..", "#..."],  # the anti-diagonal
        ["#.#.#", ".....", "#.#.#"],       # six singletons, all size ties
        ["##..##", "......", "##..##"],    # four 2-pixel ties
        [".#", "#."],
        ["#"],
        ["."],
        ["#.##.#"],
        ["#", ".", "#", "#"],
        ["###", "..#", "###", "#..", "###"],  # a snake: runs joined end to end
        ["#.#.#", "#####"],                   # a comb: many runs join one
    ])
    def test_fixed_masks_match_bfs(self, rows):
        _assert_components_match_bfs(mask_from(rows))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (64, 64)])
    def test_empty_and_full(self, shape):
        assert connected_components(np.zeros(shape, dtype=bool)) == []
        comps = connected_components(np.ones(shape, dtype=bool))
        assert len(comps) == 1 and comps[0].all()

    @pytest.mark.parametrize("pixel", [(0, 0), (5, 7), (63, 63), (0, 63)])
    def test_single_pixel(self, pixel):
        m = np.zeros((64, 64), dtype=bool)
        m[pixel] = True
        comps = connected_components(m)
        assert len(comps) == 1 and np.array_equal(comps[0], m)

    def test_size_ties_follow_first_pixel(self):
        # The lower-left blob starts at (2, 0), before the one at (2, 3) in
        # raster order but after the two-pixel one at (0, 4).
        m = mask_from([
            "....##",
            "......",
            "##.##.",
            "##.##.",
        ])
        comps = connected_components(m)
        assert [int(c.sum()) for c in comps] == [4, 4, 2]
        assert comps[0][2, 0] and comps[1][2, 3] and comps[2][0, 4]
        _assert_components_match_bfs(m)


class TestConnectedComponents:
    def test_empty_mask(self):
        assert connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_diagonal_pixels_join(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1, 1] = m[2, 2] = True
        assert len(connected_components(m)) == 1

    def test_sizes_sorted_descending(self):
        m = mask_from([
            "##....",
            "......",
            "...###",
        ])
        comps = connected_components(m)
        assert [c.sum() for c in comps] == [3, 2]

    def test_tie_break_by_topleft(self):
        m = mask_from([
            ".#...#",
            ".#...#",
        ])
        comps = connected_components(m)
        assert comps[0][0, 1] and comps[1][0, 5]

    def test_union_and_disjoint(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_mask(rng, (12, 12), 0.25)
            comps = connected_components(m)
            union = np.zeros_like(m)
            total = 0
            for c in comps:
                assert not (union & c).any()
                union |= c
                total += c.sum()
            assert np.array_equal(union, m)
            assert total == m.sum()


def one_component_by_runs(m) -> bool:
    """The fast-path test of largest_component_centroid: every run after the
    first touches a run in the row above."""
    _, _, _, lo, hi = M.row_runs(m)
    return bool((hi[1:] > lo[1:]).all())


class TestLargestComponentCentroid:
    """The glyph anchor against the centroid of the BFS oracle's largest
    component, compared with ==: the anchor promises the same bits."""

    @given(st.integers(1, 48), st.integers(1, 48), st.floats(0.05, 0.95),
           st.integers(0, 2 ** 32 - 1))
    def test_random_masks_match_bfs(self, h, w, density, seed):
        m = np.random.default_rng(seed).random((h, w)) < density
        if not m.any():
            with pytest.raises(ContractError):
                M.largest_component_centroid(m)
            return
        assert M.largest_component_centroid(m) == centroid(_components_bfs(m)[0])

    @pytest.mark.parametrize("rows, fast", [
        (["###", "#.#", "#.#"], True),       # a cap: each leg hangs from the top
        (["#.#", "#.#", "###"], False),      # a cup: two runs start the first row
        (["#...#", ".#.#.", "..#..", ".#.#.", "#...#"], False),  # an X
        (["#...#", "#...#", ".###."], False),  # a bowl joined by diagonals
        (["##..##", "......", "##..##"], False),  # four 2-pixel ties
        (["....##", "......", "##.##.", "##.##."], False),  # ties after a smaller one
        (["#..", "...", "..#"], False),      # two singletons: the first pixel wins
        ([".#", "#."], True),                # an anti-diagonal pair
        (["#"], True),
        (["####", "####", "####"], True),
        (["###", "..#", "###", "#..", "###"], True),  # a snake
        (["#.#.#", "#####"], False),         # a comb
        (["##.", "...", ".##", ".##"], False),  # the later, larger blob wins
    ])
    def test_fixed_masks_match_bfs(self, rows, fast):
        m = mask_from(rows)
        assert one_component_by_runs(m) is fast
        assert M.largest_component_centroid(m) == centroid(_components_bfs(m)[0])

    @pytest.mark.parametrize("pixel", [(0, 0), (5, 7), (63, 63), (0, 63)])
    def test_single_pixel(self, pixel):
        m = np.zeros((64, 64), dtype=bool)
        m[pixel] = True
        assert M.largest_component_centroid(m) == (float(pixel[0]), float(pixel[1]))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (64, 64)])
    def test_full_and_empty(self, shape):
        h, w = shape
        assert M.largest_component_centroid(np.ones(shape, dtype=bool)) == \
            ((h - 1) / 2, (w - 1) / 2)
        with pytest.raises(ContractError):
            M.largest_component_centroid(np.zeros(shape, dtype=bool))


class TestStructures:
    def test_roster_order(self):
        assert [s.value for s in M.STRUCTURE_ORDER] == [
            "left_lung", "right_lung", "heart", "cvc", "ett", "ngt", "sgc",
            "chest_tube", "pneumothorax"]

    def test_positive_structures_canonical(self):
        heart = np.zeros((4, 4), dtype=bool)
        heart[1, 1] = True
        lung = np.zeros((4, 4), dtype=bool)
        lung[0, 0] = True
        ms = {StructureId.HEART: heart, StructureId.CVC: np.zeros((4, 4), dtype=bool),
              StructureId.LEFT_LUNG: lung}
        assert M.positive_structures(ms) == [StructureId.LEFT_LUNG, StructureId.HEART]


def _read_pgm_bytes_oracle(raw: bytes, path) -> np.ndarray:
    """The byte-by-byte header loop that read_pgm's compiled pattern
    replaced: the oracle for which headers it accepts and what it reads."""
    if not raw.startswith(b"P5"):
        raise ContractError(f"{path}: not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise ContractError(f"{path}: malformed PGM header field {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ContractError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(raw) - pos < h * w:
        raise ContractError(f"{path}: truncated PGM pixel data, {w}x{h} needs {h * w} bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).copy()


def _assert_read_matches_oracle(path, raw: bytes):
    """read_pgm accepts and rejects what the oracle does, with the same
    pixels; the one exception is a zero extent, which only read_pgm rejects."""
    path.write_bytes(raw)
    try:
        want = _read_pgm_bytes_oracle(raw, path)
    except ContractError:
        with pytest.raises(ContractError, match=re.escape(str(path))):
            M.read_pgm(path)
        return
    if want.size == 0:
        with pytest.raises(ContractError,
                           match=re.escape(str(path)) + ": PGM extents .* must be positive"):
            M.read_pgm(path)
        return
    got = M.read_pgm(path)
    assert got.dtype == np.uint8 and got.shape == want.shape, raw
    assert np.array_equal(got, want), raw


# A header is built from parts: the magic, then a gap, a field and a
# separator three times. Each part is drawn valid, and then at most one is
# swapped for a bad one: NUL, NBSP or NEL (not ASCII whitespace), a comment
# with no newline, a field that is zero, signed or not a number.
_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
_gap = st.lists(st.sampled_from(_WHITESPACE + [b"#\n", b"# c\n", b"#2 2\n", b"# 1 255\n"]),
                max_size=3).map(b"".join)
_BAD_GAPS = [b"\x00", b"\xa0", b"\x85", b"#", b"# 255 ", b" # 1 255"]
_BAD_SEPS = [b"", b"#", b"\x00", b"\xa0", b"\x85"]
_BAD_EXTENTS = [b"0", b"-1", b"+2", b"x", b"2x", b""]
_PARTS = [  # (valid values, bad values)
    (st.just(b"P5"), [b"P6", b"P", b"p5"]),
    (_gap, _BAD_GAPS), (st.sampled_from([b"1", b"2", b"3", b"02"]), _BAD_EXTENTS),
    (st.sampled_from(_WHITESPACE), _BAD_SEPS),
    (_gap, _BAD_GAPS), (st.sampled_from([b"1", b"2", b"3", b"02"]), _BAD_EXTENTS),
    (st.sampled_from(_WHITESPACE), _BAD_SEPS),
    (_gap, _BAD_GAPS), (st.sampled_from([b"255", b"0255"]), [b"254", b"256", b"x", b""]),
    (st.sampled_from(_WHITESPACE), _BAD_SEPS),
]


@st.composite
def _pgm_files(draw) -> bytes:
    parts = [draw(valid) for valid, _ in _PARTS]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(_PARTS) - 1))
        parts[i] = draw(st.sampled_from(_PARTS[i][1]))
    return b"".join(parts) + draw(st.binary(max_size=12))


class TestPgmHeaderOracle:
    @settings(deadline=None)
    @given(_pgm_files())
    def test_random_headers_match_byte_loop(self, tmp_path_factory, raw):
        _assert_read_matches_oracle(tmp_path_factory.mktemp("pgm") / "h.pgm", raw)

    @pytest.mark.parametrize("raw", [
        b"P5\n2 1\n255\n\x01\x02",
        b"P52 1 255 \x01\x02",                # no gap after the magic
        b"P5#c\n2#c\n 1\n#c 9\n255\n\x01\x02",  # comments in every gap
        b"P5\n# 7 7\n2 1\n255\n\x01\x02",     # a comment holding digits
        b"P5 2 1 255#\x01\x02",               # no whitespace after maxval
        b"P5 2 1 255",                         # maxval at the end of the file
        b"P5 2 1\n# only a comment",
        b"P5 2 1\n# 255 \x01\x02",            # a field inside a comment that ends the file
        b"P5 2 1\n# 255\n\x01\x02",           # ... or a line
        b"P5 1\n# 1 255\n \n",                # two fields inside a comment
        b"P5\x0b2\x0c1\x0b\x0c255\n\x01\x02",  # vertical tab and form feed in the gaps
        b"P5 2\x001 255 ab",                   # NUL is not whitespace
        b"P5 2\xa01 255 ab",                   # nor is NBSP
        b"P5 2\x851 255 ab",                   # nor is NEL
        b"P5\r\n2\x0b1\x0c255\r\x01\x02",
        b"P5 02 001 0255\n\x01\x02",          # leading zeros
        b"P5 +2 1 255\n\x01\x02",
        b"P5 2 1 255\n\x01",                  # truncated
        b"P5\n0 0\n255\n",                    # zero extents: only read_pgm rejects them
        b"P5\n0 64\n255\n",
        b"P5\n64 0\n255\n" + bytes(64),
    ])
    def test_edge_headers_match_byte_loop(self, tmp_path, raw):
        _assert_read_matches_oracle(tmp_path / "e.pgm", raw)


class TestPgm:
    def test_mask_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(5):
            m = random_mask(rng, (12, 10), 0.3)
            path = tmp_path / f"m{i}.pgm"
            M.write_mask(path, m)
            assert np.array_equal(M.read_mask(path), m)

    def test_loader_normalizes_nonzero(self, tmp_path):
        path = tmp_path / "gray.pgm"
        arr = np.array([[0, 1], [128, 255]], dtype=np.uint8)
        M.write_pgm(path, arr)
        assert np.array_equal(M.read_mask(path), [[False, True], [True, True]])

    def test_image_roundtrip_quantized(self, tmp_path):
        img = np.round(np.linspace(0.0, 1.0, 64).reshape(8, 8) * 255) / 255
        path = tmp_path / "img.pgm"
        M.write_image(path, img)
        assert np.allclose(M.read_image(path), img)

    def test_comment_header_supported(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 255, 7, 9]))
        assert np.array_equal(M.read_pgm(path), [[0, 255], [7, 9]])

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ContractError):
            M.read_pgm(path)

    def test_truncated_pixel_data_names_path(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(ContractError, match="short.pgm.*truncated"):
            M.read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n4 4\n", b"P5\n4 x\n255\n", b"P5\n4 -4\n255\n",
                                        b"P5\n# only a comment"])
    def test_malformed_header_names_path(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(ContractError, match="bad.pgm.*header"):
            M.read_pgm(path)

    def test_more_than_one_read_roundtrips(self, tmp_path):
        """A 300x300 PGM is over 64 KiB, so read_file reads it in more than
        one ``os.read``; it comes back bit for bit."""
        arr = np.random.default_rng(3).integers(0, 256, (300, 300), dtype=np.uint8)
        path = tmp_path / "big.pgm"
        M.write_pgm(path, arr)
        raw = path.read_bytes()
        assert len(raw) > 1 << 16 and raw == b"P5\n300 300\n255\n" + arr.tobytes()
        got = M.read_pgm(path)
        assert got.dtype == np.uint8 and np.array_equal(got, arr)
        assert got.flags.writeable

    @pytest.mark.parametrize("fault,error", [
        ("missing", FileNotFoundError), ("directory", IsADirectoryError),
        ("truncated", ContractError), ("header", ContractError)])
    def test_error_paths_close_the_file(self, tmp_path, fault, error):
        path = tmp_path / "m.pgm"
        if fault == "directory":
            path.mkdir()
        elif fault == "truncated":
            path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        elif fault == "header":
            path.write_bytes(b"P5\n4 x\n255\n" + bytes(16))
        fds = open_fds()
        with pytest.raises(error, match=re.escape(str(path))):
            M.read_pgm(path)
        assert open_fds() == fds

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64)])
    def test_written_bytes(self, tmp_path, shape):
        arr = np.random.default_rng(9).integers(0, 256, shape, dtype=np.uint8)
        path = tmp_path / "w.pgm"
        M.write_pgm(path, arr)
        h, w = shape
        assert path.read_bytes() == b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes()
