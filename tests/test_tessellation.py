from __future__ import annotations

import heapq
import math
import random

import pytest

from ogb import tessellation as tess
from ogb.errors import OutOfExtent, UndefinedStretch
from ogb.grid import BoundingBox, GeoPoint, TileId
from ogb.names import tile_prefix
from ogb.tessellation import (
    OGB,
    DemoGrid,
    constrained,
    min_stretch,
    mst_reduce,
    optimal_cover,
    tile_stretch,
)


def box(a, b, c, d):
    return BoundingBox.of(a, b, c, d)


def test_min_stretch_box_inside_one_deepest_tile():
    t = min_stretch(box(12.511, 41.891, 12.512, 41.892))
    assert t.tiles == [TileId(12, 41, ((5, 8), (1, 9)))]
    assert not t.constraint_violated


def test_min_stretch_50km_square_has_2500_tiles():
    # A 0.5 x 0.5 degree box spans 50 x 50 deepest tiles when aligned,
    # plus one boundary row/column per axis when it touches the next cell.
    t = min_stretch(box(12.0, 41.0, 12.4999, 41.4999))
    assert len(t.tiles) == 2500
    assert all(tile.level == 2 for tile in t.tiles)
    t2 = min_stretch(box(12.0, 41.0, 12.5, 41.5))
    assert len(t2.tiles) == 51 * 51


def test_min_stretch_stretch_is_at_least_one():
    t = min_stretch(box(12.001, 41.001, 12.399, 41.399))
    assert t.stretch >= 1.0


def test_point_query_resolves_to_single_tile():
    t = min_stretch(box(12.515, 41.895, 12.515, 41.895))
    assert len(t.tiles) == 1
    assert math.isinf(t.stretch)
    c = constrained(box(12.515, 41.895, 12.515, 41.895), 10)
    assert len(c.tiles) == 1


def test_tile_stretch_half_inside_is_two():
    tile = TileId(12, 41)
    assert tile_stretch(tile, box(12.5, 41.0, 14.0, 42.0)) == pytest.approx(2.0)
    assert tile_stretch(tile, box(12.0, 41.0, 13.0, 42.0)) == pytest.approx(1.0)
    with pytest.raises(UndefinedStretch):
        tile_stretch(tile, box(50.0, 50.0, 51.0, 51.0))


def test_mst_reduce_collapses_complete_siblings():
    # A full level-0 tile enumerated at level 2 collapses to the single root.
    t = min_stretch(box(12.0, 41.0, 12.9999, 41.9999))
    assert len(t.tiles) == 100 * 100
    reduced = mst_reduce(t)
    assert reduced.tiles == [TileId(12, 41)]
    assert reduced.stretch == pytest.approx(t.stretch)


def test_mst_reduce_keeps_partial_siblings():
    # Box covers 1.5 level-1 tiles along lng: one full level-1 set collapses,
    # the partial column stays at level 2.
    t = mst_reduce(min_stretch(box(12.0, 41.0, 12.1499, 41.0999)))
    levels = sorted(tile.level for tile in t.tiles)
    assert levels.count(1) == 1
    assert levels.count(2) == 50
    assert len(t.tiles) == 51


def test_constrained_violation_branch():
    # 2 x 2 level-0 tiles with k=1: impossible, flagged, level-0 tiles returned.
    t = constrained(box(12.5, 41.5, 13.5, 42.5), 1)
    assert t.constraint_violated
    assert {x.level for x in t.tiles} == {0}
    assert len(t.tiles) == 4
    ok = constrained(box(12.5, 41.5, 13.5, 42.5), 4)
    assert not ok.constraint_violated
    assert len(ok.tiles) <= 4


def test_constrained_respects_k_and_covers_box():
    rng = random.Random(99)
    for _ in range(25):
        lng = rng.uniform(-170, 160)
        lat = rng.uniform(-80, 70)
        w = rng.uniform(0.001, 3.0)
        h = rng.uniform(0.001, 3.0)
        for k in (25, 50, 100):
            b = box(lng, lat, lng + w, lat + h)
            t = constrained(b, k)
            level0 = (math.floor(lng + w) - math.floor(lng) + 1) * \
                     (math.floor(lat + h) - math.floor(lat) + 1)
            if level0 > k:
                assert t.constraint_violated
                continue
            assert not t.constraint_violated
            assert 1 <= len(t.tiles) <= k
            assert t.stretch >= 1.0
            _assert_covers(t, b)
            _assert_disjoint(t)


def _assert_covers(t, b, samples=300, seed=5):
    rng = random.Random(seed)
    boxes = [OGB.tile_bbox(tile) for tile in t.tiles]
    for _ in range(samples):
        p = GeoPoint(rng.uniform(b.min.lng, b.max.lng),
                     rng.uniform(b.min.lat, b.max.lat))
        assert any(bb.min.lng <= p.lng < bb.max.lng and
                   bb.min.lat <= p.lat < bb.max.lat for bb in boxes)


def _assert_disjoint(t):
    # Disjointness in a hierarchical grid == no block is an ancestor of another.
    blocks = [OGB.tile_block(tile) for tile in t.tiles]
    for i, (l1, a1, b1) in enumerate(blocks):
        for l2, a2, b2 in blocks[i + 1:]:
            lo, hi = sorted([((l1, a1, b1)), ((l2, a2, b2))])
            shift = OGB.side ** (hi[0] - lo[0])
            assert not (hi[1] // shift == lo[1] and hi[2] // shift == lo[2])


def test_fast_cover_matches_explicit_reduction():
    rng = random.Random(42)
    for _ in range(20):
        lng = rng.uniform(-50, 50)
        lat = rng.uniform(-40, 40)
        b = box(lng, lat, lng + rng.uniform(0.001, 1.2), lat + rng.uniform(0.001, 1.2))
        explicit = mst_reduce(min_stretch(b))
        # With room for every tile, the cover is the collapsed one unreduced.
        fast = constrained(b, len(explicit.tiles))
        assert fast.tiles == explicit.tiles


def test_greedy_saturates_at_k():
    b = box(12.0, 41.0, 14.3, 43.7)         # 3 x 3 level-0 tiles, ragged edges
    for k in (9, 25, 50):
        t = constrained(b, k)
        assert not t.constraint_violated
        assert len(t.tiles) <= k
    # Tight k forces coarse tiles.
    t9 = constrained(b, 9)
    assert {x.level for x in t9.tiles} == {0}


def test_smaller_k_means_larger_stretch():
    rng = random.Random(4)
    s25, s100 = [], []
    for _ in range(40):
        lng = rng.uniform(-20, 20)
        lat = rng.uniform(-20, 20)
        b = box(lng, lat, lng + rng.uniform(0.05, 2.0), lat + rng.uniform(0.05, 2.0))
        s25.append(constrained(b, 25).stretch)
        s100.append(constrained(b, 100).stretch)
    assert sum(s25) / len(s25) >= sum(s100) / len(s100)
    assert all(a >= b_ for a, b_ in zip(s25, s100))


def test_constrained_stretch_never_below_min_stretch():
    rng = random.Random(11)
    for _ in range(15):
        lng = rng.uniform(-10, 10)
        lat = rng.uniform(-10, 10)
        b = box(lng, lat, lng + rng.uniform(0.01, 0.8), lat + rng.uniform(0.01, 0.8))
        floor = min_stretch(b).stretch
        t = constrained(b, 50)
        assert t.stretch >= floor - 1e-9


def demo_box(g, rng):
    ext = g.extent
    x0 = rng.uniform(ext.min.lng, ext.max.lng - 0.05)
    y0 = rng.uniform(ext.min.lat, ext.max.lat - 0.05)
    x1 = rng.uniform(x0 + 0.01, min(ext.max.lng, x0 + 3.0))
    y1 = rng.uniform(y0 + 0.01, min(ext.max.lat, y0 + 3.0))
    return BoundingBox.of(x0, y0, x1, y1)


def test_demo_grid_out_of_extent():
    g = DemoGrid(roots_x=4, roots_y=4)
    with pytest.raises(OutOfExtent):
        min_stretch(box(3.0, 3.0, 5.0, 3.5), g)


def test_greedy_close_to_optimal_on_demo_grid():
    g = DemoGrid(roots_x=6, roots_y=6)
    rng = random.Random(123)
    within = 0
    cases = 0
    while cases < 60:
        b = demo_box(g, rng)
        k = rng.randint(2, 8)
        greedy = constrained(b, k, g)
        if greedy.constraint_violated:
            continue
        cases += 1
        best = optimal_cover(b, k, g)
        assert len(best.tiles) <= k
        assert greedy.stretch >= best.stretch - 1e-9
        if greedy.stretch <= best.stretch * 1.10 + 1e-9:
            within += 1
    assert within / cases >= 0.95


def test_optimal_cover_is_exact_on_tiny_case():
    g = DemoGrid(roots_x=2, roots_y=2)
    b = box(0.0, 0.0, 1.999, 0.499)
    # With k=2 the only 2-tile covers use the two level-0 tiles.
    best = optimal_cover(b, 2, g)
    assert sorted(best.tiles) == [(0, 0, 0), (0, 1, 0)]
    loose = optimal_cover(b, 8, g)
    assert loose.stretch <= best.stretch


# -- the counting greedy against the explicit one ------------------------------
#
# `_reference_constrained` is the cover-materialising greedy that
# `constrained` replaced: it builds the whole sibling-collapsed cover, keeps a
# set of cover blocks per candidate ancestor, and pops each level's candidates
# from a heap.  It is kept here only as the oracle for the counting version.


def _reference_sort_key(block, tgrid):
    if isinstance(tgrid, DemoGrid):
        return block
    return tile_prefix(tgrid.block_tile(block)).components


def _reference_rect_minus(x0, y0, x1, y1, hx0, hy0, hx1, hy1):
    for a in range(x0, x1 + 1):
        for b in range(y0, y1 + 1):
            if not (hx0 <= a <= hx1 and hy0 <= b <= hy1):
                yield a, b


def _reference_collapsed_cover(i0, j0, i1, j1, tgrid):
    blocks = []
    prev_box = None
    for level in range(tgrid.levels):
        f = tgrid.span(level)
        if level < tgrid.deepest:
            lox, loy, hix, hiy = tess._level_inside_box(i0, j0, i1, j1, f)
            if lox > hix or loy > hiy:
                prev_box = (lox, loy, hix, hiy)
                continue
        else:
            lox, loy, hix, hiy = i0, j0, i1, j1
        if prev_box is None:
            hole = (1, 1, 0, 0)
        else:
            plox, ploy, phix, phiy = prev_box
            s = tgrid.side
            hole = (plox * s, ploy * s, (phix + 1) * s - 1, (phiy + 1) * s - 1)
        blocks.extend((level, a, b)
                      for a, b in _reference_rect_minus(lox, loy, hix, hiy, *hole))
        if level < tgrid.deepest:
            prev_box = (lox, loy, hix, hiy)
    return blocks


def _reference_greedy_reduce(blocks, k, bbox, tgrid):
    qcells = tgrid.query_cells(bbox)
    side, levels, deepest = tgrid.side, tgrid.levels, tgrid.deepest
    cover = set(blocks)
    n_by_level = [0] * levels
    groups = [dict() for _ in range(levels)]
    for blk in cover:
        level, a, b = blk
        n_by_level[level] += 1
        for anc in range(level):
            f = side ** (level - anc)
            groups[anc].setdefault((a // f, b // f), set()).add(blk)
    heaps = [[] for _ in range(levels)]
    for level in range(deepest):
        entries = []
        for key in groups[level]:
            blk = (level, key[0], key[1])
            entries.append((tess._block_stretch(blk, qcells, tgrid),
                            _reference_sort_key(blk, tgrid), key))
        heapq.heapify(entries)
        heaps[level] = entries
    while len(cover) > k:
        for i in range(deepest):
            finalized = sum(n_by_level[:i + 1])
            remaining = n_by_level[i + 1] + len(groups[i + 1])
            if finalized + remaining <= k:
                continue
            heap = heaps[i]
            while heap and heap[0][2] not in groups[i]:
                heapq.heappop(heap)
            if not heap:
                continue
            _, _, key = heapq.heappop(heap)
            for blk in groups[i].pop(key):
                level, a, b = blk
                cover.remove(blk)
                n_by_level[level] -= 1
                for anc in range(level):
                    if anc == i:
                        continue
                    f = side ** (level - anc)
                    bucket = groups[anc].get((a // f, b // f))
                    if bucket is not None:
                        bucket.discard(blk)
                        if not bucket:
                            del groups[anc][(a // f, b // f)]
            new_blk = (i, key[0], key[1])
            cover.add(new_blk)
            n_by_level[i] += 1
            for anc in range(i):
                f = side ** (i - anc)
                groups[anc].setdefault((key[0] // f, key[1] // f), set()).add(new_blk)
            break
        else:
            raise AssertionError("reference could not reduce to %d tiles" % k)
    return cover


def _reference_constrained(bbox, k, tgrid):
    """(tiles, stretch, constraint_violated) of the explicit greedy."""
    i0, j0, i1, j1 = tgrid.deepest_index_box(bbox)
    root = tgrid.span(0)
    violated = (i1 // root - i0 // root + 1) * (j1 // root - j0 // root + 1) > k
    if violated:
        blocks = [(0, a, b) for a in range(i0 // root, i1 // root + 1)
                  for b in range(j0 // root, j1 // root + 1)]
    else:
        blocks = _reference_collapsed_cover(i0, j0, i1, j1, tgrid)
        if len(blocks) > k:
            blocks = _reference_greedy_reduce(blocks, k, bbox, tgrid)
    area = sum(tgrid.span(level) ** 2 for level, _, _ in blocks)
    qx0, qy0, qx1, qy1 = tgrid.query_cells(bbox)
    qarea = (qx1 - qx0) * (qy1 - qy0)
    stretch = area / qarea if qarea > 0 else math.inf
    ordered = sorted(blocks, key=lambda blk: _reference_sort_key(blk, tgrid))
    return [tgrid.block_tile(blk) for blk in ordered], stretch, violated


def _identity_corpus(rng, count):
    # test_02's four size classes plus the benchmark's 0.01-1 degree boxes.
    for lo, hi in ((0.02, 0.1), (0.1, 1.0), (1.0, 5.0), (5.0, 15.0), (0.01, 1.0)):
        for _ in range(count):
            w, h = rng.uniform(lo, hi), rng.uniform(lo, hi)
            x = rng.uniform(-170.0, 170.0 - w)
            y = rng.uniform(-80.0, 80.0 - h)
            yield box(x, y, x + w, y + h)


@pytest.mark.parametrize("k", [1, 2, 25, 50, 100, 200])
def test_counting_greedy_matches_explicit_greedy(k):
    rng = random.Random(1800 + k)
    cases = [(b, OGB) for b in _identity_corpus(rng, 12)]
    g = DemoGrid(roots_x=6, roots_y=6)
    cases += [(demo_box(g, rng), g) for _ in range(60)]
    for b, tgrid in cases:
        got = constrained(b, k, tgrid)
        tiles, stretch, violated = _reference_constrained(b, k, tgrid)
        assert got.tiles == tiles
        assert got.constraint_violated == violated
        assert got.stretch == stretch


def test_block_sort_key_is_the_tile_prefix():
    rng = random.Random(17)
    for _ in range(3000):
        level = rng.randrange(OGB.levels)
        per_axis = OGB.side ** level
        blk = (level, rng.randrange(360 * per_axis), rng.randrange(180 * per_axis))
        assert OGB.block_sort_key(blk) == tile_prefix(OGB.block_tile(blk)).components
