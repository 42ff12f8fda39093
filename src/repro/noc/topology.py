"""Mesh/torus topology geometry.

Tiles are identified by a flat integer id ``tid = y * width + x`` over a
``width x height`` grid.  BlitzCoin's wrap-around optimization (Fig. 5)
treats the grid as a torus for *neighbor definition* while the physical
NoC remains a mesh, so hop distances are always mesh (non-wrapping)
XY-routed distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple


class TopologyError(ValueError):
    """Raised for invalid coordinates or grid shapes."""


#: Neighbor directions in the paper's N/S/E/W request order.
DIRECTIONS: Tuple[Tuple[str, int, int], ...] = (
    ("N", 0, -1),
    ("S", 0, 1),
    ("E", 1, 0),
    ("W", -1, 0),
)


@dataclass(frozen=True)
class MeshTopology:
    """Geometry of a ``width x height`` tile grid."""

    width: int
    height: int
    #: Tile count and per-tile ``(x, y)``, computed once: the NoC asks
    #: for a hop distance per packet.
    _n: int = field(init=False, repr=False, compare=False)
    _xy: Tuple[Tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise TopologyError(
                f"grid must be at least 1x1, got {self.width}x{self.height}"
            )
        n = self.width * self.height
        object.__setattr__(self, "_n", n)
        object.__setattr__(
            self,
            "_xy",
            tuple((t % self.width, t // self.width) for t in range(n)),
        )

    @property
    def n_tiles(self) -> int:
        """Total tile count N."""
        return self._n

    def coords(self, tid: int) -> Tuple[int, int]:
        """(x, y) coordinates of tile ``tid``."""
        self._check(tid)
        return self._xy[tid]

    def tile_id(self, x: int, y: int) -> int:
        """Flat id of the tile at ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise TopologyError(
                f"({x}, {y}) outside {self.width}x{self.height} grid"
            )
        return y * self.width + x

    def _check(self, tid: int) -> None:
        if not (0 <= tid < self._n):
            raise TopologyError(f"tile id {tid} outside grid of {self._n}")

    def mesh_neighbors(self, tid: int) -> List[int]:
        """In-grid N/S/E/W neighbors (2-4 of them; no wrap-around)."""
        x, y = self.coords(tid)
        out = []
        for _, dx, dy in DIRECTIONS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append(self.tile_id(nx, ny))
        return out

    def torus_neighbors(self, tid: int) -> List[int]:
        """N/S/E/W neighbors with wrap-around (always 4 for grids >= 2x2).

        This is BlitzCoin's expanded neighbor definition (Fig. 5, left):
        edge and corner tiles reach the opposite edge.  Duplicates arising
        from degenerate dimensions (width or height < 3) are removed while
        preserving the N/S/E/W order.
        """
        x, y = self.coords(tid)
        out: List[int] = []
        for _, dx, dy in DIRECTIONS:
            nx = (x + dx) % self.width
            ny = (y + dy) % self.height
            nid = self.tile_id(nx, ny)
            if nid != tid and nid not in out:
                out.append(nid)
        return out

    def hop_distance(self, src: int, dst: int) -> int:
        """XY-routed hop count on the physical (non-wrapping) mesh."""
        if not (0 <= src < self._n and 0 <= dst < self._n):
            self._check(src)
            self._check(dst)
        sx, sy = self._xy[src]
        dx, dy = self._xy[dst]
        return abs(sx - dx) + abs(sy - dy)

    def xy_route(self, src: int, dst: int) -> List[int]:
        """Tile ids along the XY route from ``src`` to ``dst`` (inclusive)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        step_x = 1 if dx > sx else -1
        while x != dx:
            x += step_x
            path.append(self.tile_id(x, y))
        step_y = 1 if dy > sy else -1
        while y != dy:
            y += step_y
            path.append(self.tile_id(x, y))
        return path

    def ring_order(self) -> List[int]:
        """A Hamiltonian ring over the grid (boustrophedon serpentine).

        Used by the TokenSmart baseline, which passes its token pool
        sequentially around all tiles.  Consecutive ring entries are mesh
        neighbors except for the closing edge, whose cost is the real mesh
        hop distance back to the start.
        """
        order: List[int] = []
        for y in range(self.height):
            xs = range(self.width) if y % 2 == 0 else range(self.width - 1, -1, -1)
            order.extend(self.tile_id(x, y) for x in xs)
        return order

    def all_tiles(self) -> Iterator[int]:
        """Iterate over all tile ids in row-major order."""
        return iter(range(self.n_tiles))

    def center_tile(self) -> int:
        """Tile nearest the geometric center of the grid."""
        return self.tile_id(self.width // 2, self.height // 2)
