"""Query-box tessellation under a tile-count constraint.

A range query's box is covered by grid tiles.  The minimum-stretch cover uses
only deepest-level tiles; collapsing every complete sibling set gives the
reduced cover; the constrained cover then greedily inserts coarser aggregate
tiles (smallest tile-stretch first, coarsest level first) until at most k
tiles remain.  If even whole level-0 tiles cannot satisfy k, the cover falls
back to the level-0 tiles and is flagged as violating the constraint.

Everything here runs in integer index space over the deepest-level cells; the
grid adapters translate blocks to real tiles.  `constrained` never builds the
reduced cover: the greedy needs only how many cover blocks and candidate
ancestors each block holds, which rectangle arithmetic gives, so only the
candidates of one level at a time and the at most k tiles of the answer are
ever built.  `DemoGrid` is a small ratio-4 grid used to compare the greedy
against `optimal_cover`, the exact branch-and-bound search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import grid as ogb_grid
from . import names
from .errors import OutOfExtent, TessellationError, UndefinedStretch
from .grid import BoundingBox, TileId

Block = tuple[int, int, int]          # (level, a, b) block indices at that level


class TessGrid:
    """Index-space view of a hierarchical square grid.

    levels counts grid levels (coarsest is 0); every tile splits into
    side x side children, so the level ratio is side**2.
    """

    levels: int
    side: int

    @property
    def deepest(self) -> int:
        return self.levels - 1

    def span(self, level: int) -> int:
        """Deepest cells per axis covered by a level-`level` block."""
        return self.side ** (self.deepest - level)

    # Adapters implement:
    def deepest_index_box(self, bbox: BoundingBox) -> tuple[int, int, int, int]:
        raise NotImplementedError

    def query_cells(self, bbox: BoundingBox) -> tuple[float, float, float, float]:
        raise NotImplementedError

    def block_tile(self, block: Block):
        raise NotImplementedError

    def tile_block(self, tile) -> Block:
        raise NotImplementedError

    def tile_bbox(self, tile) -> BoundingBox:
        raise NotImplementedError

    def block_sort_key(self, block: Block):
        raise NotImplementedError


class OgbGrid(TessGrid):
    """The production decimal grid; blocks index whole-world 0.01-degree cells."""

    levels = ogb_grid.LEVELS
    side = ogb_grid.SIDE

    _SCALE = ogb_grid.SIDE ** (ogb_grid.LEVELS - 1)      # deepest cells per degree

    def deepest_index_box(self, bbox):
        i0 = self._cell_index(bbox.min.lng, ogb_grid.LNG_MIN)
        i1 = self._cell_index(bbox.max.lng, ogb_grid.LNG_MIN)
        j0 = self._cell_index(bbox.min.lat, ogb_grid.LAT_MIN)
        j1 = self._cell_index(bbox.max.lat, ogb_grid.LAT_MIN)
        return i0, j0, i1, j1

    def _cell_index(self, value, axis_min):
        base = math.floor(value)
        return (base - int(axis_min)) * self._SCALE + ogb_grid._axis_cell(value, base, self.deepest)

    def query_cells(self, bbox):
        s = self._SCALE
        return ((bbox.min.lng - ogb_grid.LNG_MIN) * s,
                (bbox.min.lat - ogb_grid.LAT_MIN) * s,
                (bbox.max.lng - ogb_grid.LNG_MIN) * s,
                (bbox.max.lat - ogb_grid.LAT_MIN) * s)

    def block_tile(self, block) -> TileId:
        level, a, b = block
        side = self.side
        per_degree = side ** level
        digits = tuple((a // g % side, b // g % side)
                       for g in (side ** shift for shift in range(level - 1, -1, -1)))
        return TileId(a // per_degree + int(ogb_grid.LNG_MIN),
                      b // per_degree + int(ogb_grid.LAT_MIN), digits)

    def tile_block(self, tile: TileId) -> Block:
        i = (tile.lng0 - int(ogb_grid.LNG_MIN)) * self._SCALE
        j = (tile.lat0 - int(ogb_grid.LAT_MIN)) * self._SCALE
        for idx, (dx, dy) in enumerate(tile.digits):
            g = self.side ** (self.deepest - 1 - idx)
            i += dx * g
            j += dy * g
        f = self.span(tile.level)
        return (tile.level, i // f, j // f)

    def tile_bbox(self, tile: TileId) -> BoundingBox:
        return ogb_grid.tile_bbox(tile)

    def block_sort_key(self, block):
        """`names.tile_prefix(self.block_tile(block)).components`, from the
        block's integers alone."""
        level, a, b = block
        side = self.side
        per_degree = side ** level
        comps = [names.ROOT, str(a // per_degree + int(ogb_grid.LNG_MIN)),
                 str(b // per_degree + int(ogb_grid.LAT_MIN))]
        for shift in range(level - 1, -1, -1):
            g = side ** shift
            comps.append("%d%d" % (a // g % side, b // g % side))
        comps.append(names.GRID_MARKER)
        return tuple(comps)


class DemoGrid(TessGrid):
    """A small ratio-4 grid (side 2) for oracle comparisons; tiles are the
    blocks themselves."""

    def __init__(self, roots_x=6, roots_y=6, levels=3, origin=(0.0, 0.0), root_size=1.0):
        self.levels = levels
        self.side = 2
        self.roots_x = roots_x
        self.roots_y = roots_y
        self.origin = origin
        self.root_size = root_size
        self._scale = self.side ** (levels - 1)          # deepest cells per root
        self._cells_x = roots_x * self._scale
        self._cells_y = roots_y * self._scale

    @property
    def extent(self) -> BoundingBox:
        return BoundingBox.of(self.origin[0], self.origin[1],
                              self.origin[0] + self.roots_x * self.root_size,
                              self.origin[1] + self.roots_y * self.root_size)

    def _axis_index(self, value, origin, count):
        scale = self._scale / self.root_size
        idx = int((value - origin) * scale)
        idx = min(max(idx, 0), count - 1)
        while idx > 0 and value < origin + idx / scale:
            idx -= 1
        while idx < count - 1 and value >= origin + (idx + 1) / scale:
            idx += 1
        return idx

    def deepest_index_box(self, bbox):
        ext = self.extent
        if not (ext.min.lng <= bbox.min.lng and ext.min.lat <= bbox.min.lat
                and bbox.max.lng <= ext.max.lng and bbox.max.lat <= ext.max.lat):
            raise OutOfExtent("box outside the grid extent")
        return (self._axis_index(bbox.min.lng, self.origin[0], self._cells_x),
                self._axis_index(bbox.min.lat, self.origin[1], self._cells_y),
                self._axis_index(bbox.max.lng, self.origin[0], self._cells_x),
                self._axis_index(bbox.max.lat, self.origin[1], self._cells_y))

    def query_cells(self, bbox):
        scale = self._scale / self.root_size
        return ((bbox.min.lng - self.origin[0]) * scale,
                (bbox.min.lat - self.origin[1]) * scale,
                (bbox.max.lng - self.origin[0]) * scale,
                (bbox.max.lat - self.origin[1]) * scale)

    def block_tile(self, block):
        return block

    def tile_block(self, tile) -> Block:
        return tile

    def tile_bbox(self, tile) -> BoundingBox:
        level, a, b = tile
        f = self.span(level)
        cell = self.root_size / self._scale
        return BoundingBox.of(self.origin[0] + a * f * cell,
                              self.origin[1] + b * f * cell,
                              self.origin[0] + (a + 1) * f * cell,
                              self.origin[1] + (b + 1) * f * cell)

    def block_sort_key(self, block):
        return block


OGB = OgbGrid()


@dataclass
class Tessellation:
    """A cover of a query box by mixed-level tiles."""

    tiles: list
    query_area: BoundingBox
    stretch: float
    constraint_violated: bool = False

    def __len__(self):
        return len(self.tiles)


def _stretch_value(total_cell_area: float, qcells) -> float:
    qx0, qy0, qx1, qy1 = qcells
    qarea = (qx1 - qx0) * (qy1 - qy0)
    if qarea <= 0.0:
        return math.inf
    return total_cell_area / qarea


def _blocks_to_tessellation(blocks: Iterable[Block], bbox, tgrid: TessGrid,
                            violated=False) -> Tessellation:
    blocks = list(blocks)
    total = 0.0
    for level, _, _ in blocks:
        f = tgrid.span(level)
        total += f * f
    tiles = [tgrid.block_tile(blk) for blk in
             sorted(blocks, key=tgrid.block_sort_key)]
    return Tessellation(tiles, bbox, _stretch_value(total, tgrid.query_cells(bbox)),
                        constraint_violated=violated)


def tile_stretch(tile, bbox: BoundingBox, tgrid: TessGrid = OGB) -> float:
    """area(tile) / area(tile intersect bbox); raises on zero-area overlap."""
    value = _block_stretch(tgrid.tile_block(tile), tgrid.query_cells(bbox), tgrid)
    if math.isinf(value):
        raise UndefinedStretch("tile has zero-area overlap with the box")
    return value


def _block_stretch(block: Block, qcells, tgrid: TessGrid) -> float:
    level, a, b = block
    f = tgrid.span(level)
    qx0, qy0, qx1, qy1 = qcells
    w = min((a + 1) * f, qx1) - max(a * f, qx0)
    h = min((b + 1) * f, qy1) - max(b * f, qy0)
    if w <= 0 or h <= 0:
        return math.inf
    return (f * f) / (w * h)


def min_stretch(bbox: BoundingBox, tgrid: TessGrid = OGB) -> Tessellation:
    """All deepest-level tiles touching the box (the smallest-area cover)."""
    i0, j0, i1, j1 = tgrid.deepest_index_box(bbox)
    deepest = tgrid.deepest
    blocks = [(deepest, i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
    return _blocks_to_tessellation(blocks, bbox, tgrid)


def mst_reduce(tess: Tessellation, tgrid: TessGrid = OGB) -> Tessellation:
    """Collapse every complete sibling set into its parent, bottom-up."""
    blocks = {tgrid.tile_block(t) for t in tess.tiles}
    side2 = tgrid.side * tgrid.side
    for level in range(tgrid.deepest, 0, -1):
        by_parent: dict[Block, list[Block]] = {}
        for blk in blocks:
            if blk[0] == level:
                parent = (level - 1, blk[1] // tgrid.side, blk[2] // tgrid.side)
                by_parent.setdefault(parent, []).append(blk)
        for parent, kids in by_parent.items():
            if len(kids) == side2:
                blocks.difference_update(kids)
                blocks.add(parent)
    return _blocks_to_tessellation(blocks, tess.query_area, tgrid,
                                   violated=tess.constraint_violated)


def _level_inside_box(i0, j0, i1, j1, f):
    """Index range of level blocks lying fully inside the deepest-cell box."""
    lox = -(-i0 // f)
    hix = (i1 + 1) // f - 1
    loy = -(-j0 // f)
    hiy = (j1 + 1) // f - 1
    return lox, loy, hix, hiy


def _area(rect) -> int:
    """Blocks in an inclusive index rectangle; 0 when it is empty."""
    x0, y0, x1, y1 = rect
    return max(x1 - x0 + 1, 0) * max(y1 - y0 + 1, 0)


def _overlap(rect, x0, y0, x1, y1) -> int:
    """Blocks of `rect` inside [x0..x1]x[y0..y1]."""
    w = min(rect[2], x1) - max(rect[0], x0) + 1
    h = min(rect[3], y1) - max(rect[1], y0) + 1
    return w * h if w > 0 and h > 0 else 0


class _CoverCounts:
    """The sibling-collapsed cover of a deepest-cell rectangle, as per-level
    index rectangles.  At level L:

    * `touch[L]` holds the blocks meeting the rectangle;
    * `inside[L]` those lying fully inside it (at the deepest level, every
      cell of it);
    * `hole[L]` the children of `inside[L-1]`, a sub-rectangle of `inside[L]`.

    A cover block at level L is a block of `inside[L]` outside `hole[L]`: it
    lies inside and its parent does not.  A group at level L < deepest is a
    block of `touch[L]` outside `inside[L]`; its cover blocks are all deeper.
    """

    def __init__(self, i0, j0, i1, j1, tgrid: TessGrid):
        self.side = tgrid.side
        self.deepest = tgrid.deepest
        self.touch, self.inside, self.hole = [], [], []
        s = self.side
        for level in range(tgrid.levels):
            f = tgrid.span(level)
            self.touch.append((i0 // f, j0 // f, i1 // f, j1 // f))
            if level < self.deepest:
                self.inside.append(_level_inside_box(i0, j0, i1, j1, f))
            else:
                self.inside.append((i0, j0, i1, j1))
            if level == 0:
                self.hole.append((1, 1, 0, 0))
            else:
                lox, loy, hix, hiy = self.inside[level - 1]
                self.hole.append((lox * s, loy * s, (hix + 1) * s - 1, (hiy + 1) * s - 1))

    def is_inside(self, level, a, b) -> bool:
        x0, y0, x1, y1 = self.inside[level]
        return x0 <= a <= x1 and y0 <= b <= y1

    def blocks(self) -> list[int]:
        """Cover blocks per level."""
        return [_area(self.inside[L]) - _overlap(self.inside[L], *self.hole[L])
                for L in range(self.deepest + 1)]

    def groups(self) -> list[int]:
        """Groups per level; none at the deepest level."""
        return [_area(self.touch[L]) - _area(self.inside[L])
                for L in range(self.deepest)] + [0]

    def within(self, level, a, b):
        """(cover blocks, groups) per deeper level L > level inside the
        level-`level` block (a, b), as two dicts keyed by L."""
        blocks, groups = {}, {}
        for L in range(level + 1, self.deepest + 1):
            t = self.side ** (L - level)
            sub = (a * t, b * t, (a + 1) * t - 1, (b + 1) * t - 1)
            inside = _overlap(self.inside[L], *sub)
            blocks[L] = inside - _overlap(self.hole[L], *sub)
            groups[L] = _overlap(self.touch[L], *sub) - inside if L < self.deepest else 0
        return blocks, groups

    def children(self, level, a, b):
        """Level-(level+1) blocks of (a, b) that meet the rectangle."""
        s = self.side
        x0, y0, x1, y1 = self.touch[level + 1]
        return [(x, y) for x in range(max(a * s, x0), min((a + 1) * s - 1, x1) + 1)
                for y in range(max(b * s, y0), min((b + 1) * s - 1, y1) + 1)]


def constrained(bbox: BoundingBox, k: int, tgrid: TessGrid = OGB) -> Tessellation:
    """At most k tiles covering the box, or the flagged level-0 cover when
    even whole level-0 tiles exceed k.

    Starting from the sibling-collapsed cover, the greedy inserts aggregate
    tiles top-down.  A level-i aggregate is necessary iff the tiles at levels
    <= i plus the distinct level-(i+1) ancestors of everything deeper still
    exceed k; while it is, the candidate ancestor with the smallest
    tile-stretch (then the smallest sort key) is inserted and its
    descendants dropped.  An insertion at level i leaves that test unchanged
    at every coarser level, so the levels are settled in turn, coarsest
    first, and a level-i candidate still holds its initial cover when it is
    chosen.  The greedy therefore needs only counts, which `_CoverCounts`
    gives by rectangle arithmetic; only the candidates of the level being
    settled and the at most k tiles of the result are ever built.
    """
    if k < 1:
        raise TessellationError("k must be >= 1, got %r" % (k,))
    i0, j0, i1, j1 = tgrid.deepest_index_box(bbox)
    root = tgrid.span(0)
    a0, a1 = i0 // root, i1 // root
    b0, b1 = j0 // root, j1 // root
    if (a1 - a0 + 1) * (b1 - b0 + 1) > k:
        blocks = [(0, a, b) for a in range(a0, a1 + 1) for b in range(b0, b1 + 1)]
        return _blocks_to_tessellation(blocks, bbox, tgrid, violated=True)

    cover = _CoverCounts(i0, j0, i1, j1, tgrid)
    n_blocks = cover.blocks()
    n_groups = cover.groups()
    qcells = tgrid.query_cells(bbox)
    deepest = tgrid.deepest
    out: list[Block] = []
    frontier = [(a, b) for a in range(a0, a1 + 1) for b in range(b0, b1 + 1)]
    for level in range(deepest + 1):
        groups = []
        for a, b in frontier:
            if level == deepest or cover.is_inside(level, a, b):
                out.append((level, a, b))
            else:
                groups.append((a, b))
        # Tiles at levels <= level, plus the level-(level+1) blocks and
        # groups that everything deeper would collapse to.
        need = sum(n_blocks[:level + 2]) + n_groups[level + 1] if groups else 0
        merged = set()
        if need > k:
            ranked = sorted(groups, key=lambda g: (
                _block_stretch((level, g[0], g[1]), qcells, tgrid),
                tgrid.block_sort_key((level, g[0], g[1]))))
            for a, b in ranked:
                if need <= k:
                    break
                blocks, inner = cover.within(level, a, b)
                for L in blocks:
                    n_blocks[L] -= blocks[L]
                    n_groups[L] -= inner[L]
                n_blocks[level] += 1
                need += 1 - blocks[level + 1] - inner[level + 1]
                merged.add((a, b))
                out.append((level, a, b))
        frontier = [c for g in groups if g not in merged
                    for c in cover.children(level, *g)]
    if len(out) > k:
        raise TessellationError("could not reduce cover to %d tiles" % k)
    return _blocks_to_tessellation(out, bbox, tgrid)


def optimal_cover(bbox: BoundingBox, k: int, tgrid: TessGrid) -> Tessellation:
    """Exact minimum-stretch cover with at most k tiles, by branch-and-bound
    over the tiles containing each uncovered cell.  Independent of the greedy
    path; intended for small grids (the oracle in comparisons)."""
    i0, j0, i1, j1 = tgrid.deepest_index_box(bbox)
    root = tgrid.span(0)
    if (i1 // root - i0 // root + 1) * (j1 // root - j0 // root + 1) > k:
        blocks = [(0, a, b) for a in range(i0 // root, i1 // root + 1)
                  for b in range(j0 // root, j1 // root + 1)]
        return _blocks_to_tessellation(blocks, bbox, tgrid, violated=True)

    cells = [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
    cell_pos = {c: idx for idx, c in enumerate(cells)}
    deepest = tgrid.deepest

    members: dict[Block, list[int]] = {}
    ancestors: list[list[Block]] = []
    for (i, j) in cells:
        anc = []
        for level in range(tgrid.levels):
            f = tgrid.span(level)
            blk = (level, i // f, j // f)
            anc.append(blk)
            if blk not in members:
                f2 = tgrid.span(level)
                mem = []
                for x in range(blk[1] * f2, (blk[1] + 1) * f2):
                    for y in range(blk[2] * f2, (blk[2] + 1) * f2):
                        idx = cell_pos.get((x, y))
                        if idx is not None:
                            mem.append(idx)
                members[blk] = mem
        ancestors.append(anc)

    area = {blk: tgrid.span(blk[0]) ** 2 for blk in members}
    n = len(cells)
    covered = [0] * n
    chosen: list[Block] = []
    best: list = [math.inf, None]

    def contains(outer: Block, inner: Block) -> bool:
        lo, ao, bo = outer
        li, ai, bi = inner
        if lo > li:
            return False
        shift = tgrid.side ** (li - lo)
        return ai // shift == ao and bi // shift == bo

    def search(ptr: int, total_area: float):
        while ptr < n and covered[ptr]:
            ptr += 1
        if ptr == n:
            if total_area < best[0]:
                best[0] = total_area
                best[1] = list(chosen)
            return
        if len(chosen) >= k or total_area >= best[0]:
            return
        for blk in ancestors[ptr]:
            if any(contains(blk, c) for c in chosen):
                continue
            for idx in members[blk]:
                covered[idx] += 1
            chosen.append(blk)
            search(ptr + 1, total_area + area[blk])
            chosen.pop()
            for idx in members[blk]:
                covered[idx] -= 1

    search(0, 0.0)
    if best[1] is None:
        raise TessellationError("no cover with %d tiles exists" % k)
    return _blocks_to_tessellation(best[1], bbox, tgrid)
