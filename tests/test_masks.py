"""Mask operations: positivity, grid resampling, contours, centroids,
components, and PGM round trips."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprompt.errors import ContractError
from segprompt import masks as M
from segprompt.masks import StructureId


def mask_from(rows: list[str]) -> np.ndarray:
    return np.array([[ch == "#" for ch in row] for row in rows])


def random_mask(rng, shape=(16, 16), p=0.2):
    return rng.random(shape) < p


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
        assert M.centroid(m) == (2.0, 5.0)

    def test_two_pixel_symmetry(self):
        m = np.zeros((4, 4), dtype=bool)
        m[0, 0] = m[2, 2] = True
        assert M.centroid(m) == (1.0, 1.0)

    def test_l_shape(self):
        m = mask_from(["#..", "##."])
        r, c = M.centroid(m)
        assert abs(r - 2 / 3) < 1e-12 and abs(c - 1 / 3) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            M.centroid(np.zeros((3, 3), dtype=bool))

    def test_centroid_inside_bounding_box(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = random_mask(rng, (9, 9), 0.3)
            if not m.any():
                continue
            r, c = M.centroid(m)
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
    got = M.connected_components(m)
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
        assert M.connected_components(np.zeros(shape, dtype=bool)) == []
        comps = M.connected_components(np.ones(shape, dtype=bool))
        assert len(comps) == 1 and comps[0].all()

    @pytest.mark.parametrize("pixel", [(0, 0), (5, 7), (63, 63), (0, 63)])
    def test_single_pixel(self, pixel):
        m = np.zeros((64, 64), dtype=bool)
        m[pixel] = True
        comps = M.connected_components(m)
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
        comps = M.connected_components(m)
        assert [int(c.sum()) for c in comps] == [4, 4, 2]
        assert comps[0][2, 0] and comps[1][2, 3] and comps[2][0, 4]
        _assert_components_match_bfs(m)


class TestConnectedComponents:
    def test_empty_mask(self):
        assert M.connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_diagonal_pixels_join(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1, 1] = m[2, 2] = True
        assert len(M.connected_components(m)) == 1

    def test_sizes_sorted_descending(self):
        m = mask_from([
            "##....",
            "......",
            "...###",
        ])
        comps = M.connected_components(m)
        assert [c.sum() for c in comps] == [3, 2]

    def test_tie_break_by_topleft(self):
        m = mask_from([
            ".#...#",
            ".#...#",
        ])
        comps = M.connected_components(m)
        assert comps[0][0, 1] and comps[1][0, 5]

    def test_union_and_disjoint(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_mask(rng, (12, 12), 0.25)
            comps = M.connected_components(m)
            union = np.zeros_like(m)
            total = 0
            for c in comps:
                assert not (union & c).any()
                union |= c
                total += c.sum()
            assert np.array_equal(union, m)
            assert total == m.sum()


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
