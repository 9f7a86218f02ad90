"""Per-slot cell state at a node: custody lines, samples, reconstruction.

Tracks which cells of the node's assigned rows/columns (and of its 73
random samples) are currently held, and applies Reed-Solomon
reconstruction at the line level: as soon as a custody line holds at
least half of its cells, the remaining half is recovered locally
(Algorithm 1, lines 25-27). The simulation tracks cell *identity*,
not bytes — the byte-level codec in :mod:`repro.erasure.blob` is
validated separately, so here reconstruction is an occupancy fill.

Consolidation is *deficit-driven*: a line needs only ``len/2 - held``
more cells to be reconstructable, so that is what the fetcher requests
(fetching all 512 cells of every line would cost ~4.5 MB per node per
slot instead of the ~1-2 MB the paper reports in Figure 10).

Representation: each custody line is one Python int bitmask, bit *i*
being position *i* within the line (the column of a row, the row of a
column), as in :class:`repro.erasure.matrix.RowColumnAvailability`. A
cell where two custody lines cross is set in both masks. Line counts
are ``bit_count()``, completeness is ``mask == full`` and
reconstruction is a single assignment plus one crossing bit per other
custody line, so a node's custody state is 16 ints instead of a set of
~8k cell ids. Cells off the custody lines (samples elsewhere, cells the
GossipSub and PeerDAS baselines ingest) are kept in a plain set.

:meth:`SlotCellState.mark` writes the same per-line masks for other
cell sets (the fetcher's inbound and boost maps), so everything keyed
by custody line shares one geometry.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.core.assignment import Custody, lines_of_cell
from repro.params import PandasParams

__all__ = ["SlotCellState", "bit_positions"]


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SlotCellState:
    """Cells held by one node for one slot."""

    __slots__ = (
        "params",
        "custody",
        "on_store",
        "custody_lines",
        "samples",
        "cells_reconstructed",
        "duplicates_received",
        "_ext_rows",
        "_ext_cols",
        "_masks",
        "_off_line",
        "_row_full",
        "_col_full",
        "_incomplete_lines",
        "_samples_missing",
    )

    def __init__(
        self,
        params: PandasParams,
        custody: Custody,
        samples: Iterable[int],
        on_store: Callable[[int], None] | None = None,
    ) -> None:
        self.params = params
        self.custody = custody
        # invoked once per newly stored cell (received OR reconstructed);
        # lets the node serve buffered queries in O(1) per cell instead
        # of rescanning its pending-request list on every arrival. The
        # node detaches it (sets None) while no query is waiting, which
        # removes a per-cell call from the bulk ingest path.
        self.on_store = on_store
        self.custody_lines: tuple[int, ...] = custody.lines(params.ext_rows)
        self._ext_rows = params.ext_rows
        self._ext_cols = params.ext_cols
        # held positions per custody line (the only custody-line state)
        self._masks: dict[int, int] = dict.fromkeys(self.custody_lines, 0)
        # held cells on no custody line, by exact membership
        self._off_line: set[int] = set()
        self._row_full = (1 << params.ext_cols) - 1
        self._col_full = (1 << params.ext_rows) - 1
        self._incomplete_lines = len(self.custody_lines)
        self.samples: set[int] = set(samples)
        self._samples_missing = len(self.samples)
        self.cells_reconstructed = 0
        self.duplicates_received = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def full_mask(self, line: int) -> int:
        return self._row_full if line < self._ext_rows else self._col_full

    def cell_at(self, line: int, position: int) -> int:
        """Cell id at ``position`` within ``line``."""
        if line < self._ext_rows:
            return line * self._ext_cols + position
        return position * self._ext_cols + (line - self._ext_rows)

    def cells_of(self, line: int, mask: int) -> list[int]:
        """Cell ids of the set bits of ``mask`` on ``line``, ascending."""
        cell_at = self.cell_at
        return [cell_at(line, pos) for pos in bit_positions(mask)]

    def cells_in(self, masks: dict[int, int]) -> set[int]:
        """Cell ids set in per-line ``masks`` (the inverse of :meth:`mark`)."""
        cells: set[int] = set()
        for line, mask in masks.items():
            cells.update(self.cells_of(line, mask))
        return cells

    def lines_of(self, cid: int) -> tuple[int, int]:
        return lines_of_cell(cid, self._ext_rows, self._ext_cols)

    def mark(self, masks: dict[int, int], cells: Iterable[int]) -> None:
        """OR the custody-line cells of ``cells`` into per-line ``masks``.

        Same layout as the held-cell masks: a cell on two custody lines
        is set in both, and cells on no custody line are ignored.
        ``cells`` is iterated exactly once. Cells that all lie on one
        line (a seed parcel, a boost entry) are first folded into a
        single mask of that line, so the per-cell work is one shift.
        """
        cells = tuple(cells)
        if not cells:
            return
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        low = min(cells)
        row = low // ext_cols
        line = -1
        if max(cells) < (row + 1) * ext_cols:
            line = row
            positions = map((row * ext_cols).__rsub__, cells)
        elif len(set(map(ext_cols.__rmod__, cells))) == 1:
            line = ext_rows + low - row * ext_cols
            positions = map(ext_cols.__rfloordiv__, cells)
        if line >= 0:
            bits = 0
            for pos in positions:
                bits |= 1 << pos
            self._mark_line(masks, line, bits)
            return
        line_set = self._masks
        get = masks.get
        for cid in cells:
            row = cid // ext_cols
            col = cid - row * ext_cols
            if row in line_set:
                masks[row] = get(row, 0) | (1 << col)
            col_line = ext_rows + col
            if col_line in line_set:
                masks[col_line] = get(col_line, 0) | (1 << row)

    def _mark_line(self, masks: dict[int, int], line: int, bits: int) -> None:
        """OR positions ``bits`` of ``line`` into ``masks``, plus the one
        crossing bit on each perpendicular custody line."""
        ext_rows = self._ext_rows
        if line in self._masks:
            masks[line] = masks.get(line, 0) | bits
        if line < ext_rows:
            bit = 1 << line
            for col in self.custody.cols:
                if bits >> col & 1:
                    masks[ext_rows + col] = masks.get(ext_rows + col, 0) | bit
        else:
            bit = 1 << (line - ext_rows)
            for row in self.custody.rows:
                if bits >> row & 1:
                    masks[row] = masks.get(row, 0) | bit

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_cells(self, cells: Iterable[int]) -> tuple[int, int]:
        """Ingest received cells; returns (new_count, reconstructed_count).

        Applies the reconstruction closure: a custody line reaching
        half occupancy is completed in full. Completed cells may close
        further custody lines at their intersections, so the closure
        loops to fixpoint (cheap: at most 16 lines).
        """
        masks = self._masks
        get = masks.get
        off_line = self._off_line
        samples = self.samples
        on_store = self.on_store
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        new_count = 0
        dup_count = 0
        touched = False
        for cid in cells:
            row = cid // ext_cols
            col = cid - row * ext_cols
            col_line = ext_rows + col
            mask = get(row)
            col_mask = get(col_line)
            if mask is not None:
                bit = 1 << col
                if mask & bit:
                    dup_count += 1
                    continue
                masks[row] = mask | bit
                if col_mask is not None:
                    masks[col_line] = col_mask | (1 << row)
                touched = True
            elif col_mask is not None:
                bit = 1 << row
                if col_mask & bit:
                    dup_count += 1
                    continue
                masks[col_line] = col_mask | bit
                touched = True
            elif cid in off_line:
                dup_count += 1
                continue
            else:
                off_line.add(cid)
            new_count += 1
            if cid in samples:
                self._samples_missing -= 1
            if on_store is not None:
                on_store(cid)
        if dup_count:
            self.duplicates_received += dup_count
        # a line can only have become fillable if its mask moved; the
        # closure left every line either complete or below half, so an
        # untouched batch cannot trigger reconstruction
        reconstructed = self._reconstruct_closure() if touched else 0
        return new_count, reconstructed

    def _reconstruct_closure(self) -> int:
        """Complete every custody line at or above half, to fixpoint.

        Filling a line sets its mask to full and, for each crossing
        custody line, the one bit where they meet. ``on_store`` fires
        per newly set cell in ascending position order, and is re-read
        per cell so a sink that detaches itself stops the calls.
        """
        reconstructed = 0
        masks = self._masks
        progress = True
        while progress:
            progress = False
            for line in self.custody_lines:
                mask = masks[line]
                full = self.full_mask(line)
                if mask == full or mask.bit_count() < full.bit_length() // 2:
                    continue
                missing = full ^ mask
                self._mark_line(masks, line, missing)
                reconstructed += missing.bit_count()
                if self.on_store is not None:
                    for cid in self.cells_of(line, missing):
                        on_store = self.on_store
                        if on_store is None:
                            break
                        on_store(cid)
                progress = True
        self._incomplete_lines = sum(
            1 for line in self.custody_lines if masks[line] != self.full_mask(line)
        )
        if reconstructed:
            self.cells_reconstructed += reconstructed
            self._samples_missing = len(self.samples) - len(self.held_of(self.samples))
        return reconstructed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def held_of(self, cells: Iterable[int]) -> set[int]:
        """The members of ``cells`` this node holds."""
        get = self._masks.get
        off_line = self._off_line
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        held: set[int] = set()
        for cid in cells:
            row = cid // ext_cols
            pos = cid - row * ext_cols
            mask = get(row)
            if mask is None:
                mask = get(ext_rows + pos)
                if mask is None:
                    if cid in off_line:
                        held.add(cid)
                    continue
                pos = row
            if mask >> pos & 1:
                held.add(cid)
        return held

    def has_cell(self, cid: int) -> bool:
        return bool(self.held_of((cid,)))

    def has_all(self, cells: Iterable[int]) -> bool:
        cells = set(cells)
        return len(self.held_of(cells)) == len(cells)

    def line_count(self, line: int) -> int:
        return self._masks[line].bit_count()

    def line_complete(self, line: int) -> bool:
        return self._masks[line] == self.full_mask(line)

    def line_deficit(self, line: int) -> int:
        """Cells still needed before the line is reconstructable."""
        deficit = self.full_mask(line).bit_length() // 2 - self._masks[line].bit_count()
        return deficit if deficit > 0 else 0

    def missing_mask(self, line: int) -> int:
        """Positions of ``line`` not held, as a bitmask."""
        return self.full_mask(line) ^ self._masks[line]

    def missing_in_line(self, line: int) -> list[int]:
        """Missing cell ids of a custody line, in position order."""
        return self.cells_of(line, self.missing_mask(line))

    @property
    def consolidation_complete(self) -> bool:
        """All assigned rows and columns fully held (or reconstructed)."""
        return self._incomplete_lines == 0

    @property
    def sampling_complete(self) -> bool:
        """All random sample cells held."""
        return self._samples_missing == 0

    @property
    def complete(self) -> bool:
        return self._incomplete_lines == 0 and self._samples_missing == 0

    def missing_samples(self) -> set[int]:
        held = self.held_of(self.samples)
        return {cid for cid in self.samples if cid not in held}
