"""Differential tests: bitmask cell state vs a set-based reference model.

``SlotCellState`` keeps one integer bitmask per custody line, and the
fetcher keeps its boost map and inbound cells the same way. The small
models below hold the same information as plain sets of cell ids and
implement the observable semantics directly: ingest order,
reconstruction to fixpoint in custody-line order, ``on_store`` order,
deficit targeting and the first-encounter candidate scan. Hypothesis
drives both with random batches and compares every query.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, PeerQuery
from repro.params import FetchSchedule, PandasParams
from repro.sim.engine import Simulator

PARAMS = PandasParams(base_rows=8, base_cols=8, custody_rows=3, custody_cols=3, samples=6)
EXT_ROWS = PARAMS.ext_rows
EXT_COLS = PARAMS.ext_cols
TOTAL = PARAMS.total_cells
FAST = settings(max_examples=80, deadline=None)


class ModelCellState:
    """Set-based reference for ``SlotCellState``."""

    def __init__(self, custody: Custody, samples, on_store=None) -> None:
        self.custody_lines = custody.lines(EXT_ROWS)
        self.samples = set(samples)
        self.on_store = on_store
        self.have: set[int] = set()
        self.duplicates_received = 0

    def line_cells(self, line: int) -> list[int]:
        return cells_of_line(line, EXT_ROWS, EXT_COLS)

    def add_cells(self, cells) -> tuple[int, int]:
        on_store = self.on_store  # bound once per batch, as documented
        new = 0
        for cid in cells:
            if cid in self.have:
                self.duplicates_received += 1
                continue
            self.have.add(cid)
            new += 1
            if on_store is not None:
                on_store(cid)
        reconstructed = 0
        progress = True
        while progress:
            progress = False
            for line in self.custody_lines:
                cells_on_line = self.line_cells(line)
                count = sum(1 for cid in cells_on_line if cid in self.have)
                if count != len(cells_on_line) and count >= len(cells_on_line) // 2:
                    for cid in cells_on_line:
                        if cid not in self.have:
                            self.have.add(cid)
                            reconstructed += 1
                            if self.on_store is not None:  # re-read per cell
                                self.on_store(cid)
                    progress = True
        return new, reconstructed

    def line_deficit(self, line: int) -> int:
        cells_on_line = self.line_cells(line)
        held = sum(1 for cid in cells_on_line if cid in self.have)
        return max(0, len(cells_on_line) // 2 - held)

    def missing_in_line(self, line: int) -> list[int]:
        return [cid for cid in self.line_cells(line) if cid not in self.have]

    def missing_samples(self) -> set[int]:
        return {cid for cid in self.samples if cid not in self.have}

    @property
    def consolidation_complete(self) -> bool:
        return all(not self.missing_in_line(line) for line in self.custody_lines)

    @property
    def sampling_complete(self) -> bool:
        return not self.missing_samples()

    @property
    def complete(self) -> bool:
        return self.consolidation_complete and self.sampling_complete


def model_round_targets(model, inbound, boost_cells, round_index, settle_round):
    """The deficit targeting of Algorithm 1 over plain sets."""
    targets = set(model.missing_samples())
    trust_inbound = round_index < settle_round
    for line in model.custody_lines:
        deficit = model.line_deficit(line)
        if deficit <= 0:
            continue
        boosted_out, plain_out, inbound_cells = [], [], []
        for cid in model.missing_in_line(line):
            if cid in inbound:
                inbound_cells.append(cid)
            elif cid in boost_cells:
                boosted_out.append(cid)
            else:
                plain_out.append(cid)
        if trust_inbound:
            deficit = max(0, deficit - len(inbound_cells))
            picked = (boosted_out + plain_out)[:deficit]
        else:
            picked = (boosted_out + plain_out + inbound_cells)[:deficit]
        targets.update(picked)
    return targets


def model_candidates(targets, line_custodians, skip, exclude, boost):
    """First-encounter candidate scan plus the boost override."""
    missing_by_line: dict[int, set[int]] = {}
    for cid in targets:
        row, col = divmod(cid, EXT_COLS)
        missing_by_line.setdefault(row, set()).add(cid)
        missing_by_line.setdefault(EXT_ROWS + col, set()).add(cid)
    peer_lines: dict[int, list[int]] = {}
    skip = set(skip)
    for line in missing_by_line:
        for peer in line_custodians(line):
            if peer in skip:
                continue
            if peer not in peer_lines:
                if exclude(peer):
                    skip.add(peer)
                    continue
                peer_lines[peer] = []
            peer_lines[peer].append(line)
    candidates = {
        peer: set().union(*(missing_by_line[line] for line in lines))
        for peer, lines in peer_lines.items()
    }
    for peer, boosted in boost.items():
        if peer in candidates and boosted & targets:
            candidates[peer] = boosted & targets
    return candidates


@st.composite
def custody_and_samples(draw):
    rows = draw(st.lists(st.integers(0, EXT_ROWS - 1), min_size=1, max_size=3, unique=True))
    cols = draw(st.lists(st.integers(0, EXT_COLS - 1), min_size=1, max_size=3, unique=True))
    samples = draw(st.lists(st.integers(0, TOTAL - 1), max_size=8, unique=True))
    return Custody(tuple(sorted(rows)), tuple(sorted(cols))), samples


def custody_cells(custody: Custody) -> list[int]:
    cells: list[int] = []
    for line in custody.lines(EXT_ROWS):
        cells.extend(cells_of_line(line, EXT_ROWS, EXT_COLS))
    return cells


def cell_batches(draw, custody: Custody, count: int) -> list[list[int]]:
    """Batches biased towards custody lines, so lines reconstruct."""
    on_line = custody_cells(custody)
    anywhere = st.integers(0, TOTAL - 1)
    cell = st.one_of(st.sampled_from(on_line), anywhere)
    return [draw(st.lists(cell, max_size=20)) for _ in range(count)]


def assert_same_state(state: SlotCellState, model: ModelCellState) -> None:
    for line in model.custody_lines:
        assert state.line_deficit(line) == model.line_deficit(line)
        assert state.missing_in_line(line) == model.missing_in_line(line)
        assert state.line_count(line) == len(model.line_cells(line)) - len(
            model.missing_in_line(line)
        )
    assert state.missing_samples() == model.missing_samples()
    assert list(state.missing_samples()) == list(model.missing_samples())
    assert state.consolidation_complete == model.consolidation_complete
    assert state.sampling_complete == model.sampling_complete
    assert state.complete == model.complete
    assert state.held_of(range(TOTAL)) == model.have
    assert state.duplicates_received == model.duplicates_received


def make_sink(record: list[int], owner, budget: int | None):
    """An ``on_store`` sink that records, and detaches after ``budget`` calls."""
    left = [budget]

    def sink(cid: int) -> None:
        record.append(cid)
        if left[0] is not None:
            left[0] -= 1
            if left[0] <= 0:
                owner.on_store = None

    return sink


@given(data=st.data(), layout=custody_and_samples())
@FAST
def test_cell_state_matches_set_model(data, layout):
    custody, samples = layout
    state = SlotCellState(PARAMS, custody, samples)
    model = ModelCellState(custody, samples)
    for batch in cell_batches(data.draw, custody, data.draw(st.integers(1, 8))):
        # on_store attached (possibly detaching itself after a few
        # calls, as the node's sink does) or detached, per batch
        mode = data.draw(st.sampled_from(["none", "record", "detach"]))
        budget = None
        if mode == "detach":
            # detach during ingest or, more interestingly, part-way
            # through a line's reconstruction
            budget = len(set(batch) - model.have) + data.draw(st.integers(-2, 6))
        calls: dict[str, list[int]] = {"state": [], "model": []}
        for name, owner in (("state", state), ("model", model)):
            owner.on_store = None if mode == "none" else make_sink(calls[name], owner, budget)
        assert state.add_cells(iter(batch)) == model.add_cells(batch)
        assert calls["state"] == calls["model"]
        assert_same_state(state, model)


def make_pair(custody, samples, custodians, seed):
    state = SlotCellState(PARAMS, custody, samples)
    model = ModelCellState(custody, samples)
    rng = random.Random(seed)
    excluded = {peer for peer in range(40) if rng.random() < 0.1}
    fetcher = AdaptiveFetcher(
        sim=Simulator(),
        state=state,
        schedule=FetchSchedule(),
        line_custodians=lambda line: custodians.get(line, []),
        send_query=lambda peer, cells: None,
        rng=random.Random(seed),
        cb_boost=10_000,
        self_id=0,
        exclude_peer=excluded.__contains__,
        peer_weight=lambda peer: 1.0 / (1 + peer % 3),
    )
    return state, model, fetcher, excluded


@given(data=st.data(), layout=custody_and_samples(), seed=st.integers(0, 1000))
@FAST
def test_round_targets_and_candidates_match_set_model(data, layout, seed):
    custody, samples = layout
    rng = random.Random(seed)
    custodians = {
        line: rng.sample(range(40), rng.randint(0, 6)) for line in range(EXT_ROWS + EXT_COLS)
    }
    state, model, fetcher, excluded = make_pair(custody, samples, custodians, seed)
    on_line = custody_cells(custody)
    inbound: set[int] = set()
    boost: dict[int, set[int]] = {}
    for _ in range(data.draw(st.integers(0, 6))):
        peer = data.draw(st.integers(1, 39))
        cells = data.draw(st.lists(st.sampled_from(on_line), max_size=12))
        if data.draw(st.booleans()):
            # a one-line run, as the builder's boost entries are
            line = data.draw(st.sampled_from(custody.lines(EXT_ROWS)))
            line_cells = cells_of_line(line, EXT_ROWS, EXT_COLS)
            start = data.draw(st.integers(0, len(line_cells) - 1))
            cells = line_cells[start : start + data.draw(st.integers(1, 8))]
        if data.draw(st.booleans()):
            fetcher.add_inbound(iter(cells))
            inbound.update(cells)
        else:
            fetcher.add_boost(peer, iter(cells))
            boost.setdefault(peer, set()).update(cells)
    boost_cells = set().union(*boost.values()) if boost else set()
    assert fetcher.inbound_cells() == inbound
    for peer in boost:
        assert fetcher.boosted_cells(peer) == boost[peer]
    for batch in cell_batches(data.draw, custody, data.draw(st.integers(0, 3))):
        state.add_cells(batch)
        model.add_cells(batch)
    for peer in data.draw(st.sets(st.integers(1, 39), max_size=10)):
        fetcher.queries[peer] = PeerQuery(round=1, cells=frozenset({peer}))
    settle = fetcher.schedule.settle_round
    for round_index in (1, settle - 1, settle, settle + 1):
        targets = fetcher.round_targets(round_index)
        expected = model_round_targets(model, inbound, boost_cells, round_index, settle)
        # same insertions in the same order: identical iteration order
        assert list(targets) == list(expected)
        candidates, seeded, weights = fetcher._candidate_cells(targets)
        skip = {peer for peer, query in fetcher.queries.items() if query.excluded}
        skip.add(fetcher.self_id)
        reference = model_candidates(
            targets, lambda line: custodians.get(line, []), skip,
            excluded.__contains__, boost,
        )
        assert list(candidates) == list(reference)
        assert candidates == reference
        assert seeded == {
            peer: boost[peer] & targets
            for peer in boost
            if peer in reference and boost[peer] & targets
        }
        assert weights == {peer: 1.0 / (1 + peer % 3) for peer in reference}
