"""Adaptive fetching (Section 7, Algorithm 1, Figure 8).

One fetcher per node per slot drives both consolidation and sampling.
It proceeds in rounds; round ``i`` has timeout ``t_i`` (400, 200, then
100 ms) and redundancy ``k_i`` (1, 2, 4, 6, 8, then 10):

1. **Targeting** — the round's cell set F holds every missing sample
   plus, per incomplete custody line, the *deficit*: just enough
   missing cells to reach the Reed-Solomon reconstruction threshold
   (half of the line), net of cells the builder declared as already
   in flight to this node, preferring cells the consolidation-boost
   map locates at a peer. Fetching whole lines instead would cost
   ~4.5 MB per node; deficit targeting reproduces both the paper's
   ~2 MB traffic ceiling (Figure 10) and Table 1's requested-cell
   profile with zero round-1 duplicates.
2. **Scoring** — every queryable peer gets the number of its custody
   cells in F; peers in the boost map get ``cb_boost`` extra per
   still-missing seeded cell, an overwhelming advantage that steers
   early queries to peers that already *hold* cells rather than peers
   that must consolidate first.
3. **Planning** — peers are scanned in decreasing score order; each is
   planned a query for its cells of interest still lacking ``k_i``
   planned requests, until every cell in F reaches redundancy ``k_i``
   or peers run out.
4. **Execution** — queries go out as one-way UDP datagrams; the peer
   set shrinks (a node is queried at most once per slot); the fetcher
   sleeps ``t_i`` and starts the next round.

Responses can arrive in *any* later round (queried nodes buffer what
they cannot serve yet and never NACK); per-round telemetry (Table 1)
distinguishes replies received before and after their round's timeout.

Cell state: the fetcher's long-lived cell sets — the boost map and the
declared-inbound cells — are per-custody-line integer bitmasks in the
layout of :class:`repro.core.custody.SlotCellState` (bit *i* is
position *i* within the line). Targeting works on masks directly:
``missing & boost``, plain missing cells, then ``missing & inbound``.
Only the per-round target set and candidate cell sets are plain sets,
and they live for one round. The query ledger (:class:`PeerQuery`)
keeps the cells asked of each peer as the frozenset its query carried.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any

from repro.core.custody import SlotCellState, bit_positions
from repro.obs.bus import ObservationBus
from repro.params import FetchSchedule, RetryPolicy
from repro.sim.engine import Event, Simulator

__all__ = [
    "AdaptiveFetcher", "RoundStats", "FetchPlan", "PeerQuery", "plan_queries", "score_peers"
]


@dataclass(slots=True)
class RoundStats:
    """Telemetry for one fetching round (the columns of Table 1)."""

    index: int
    started_at: float = 0.0
    deadline: float = 0.0
    messages_sent: int = 0
    cells_requested: int = 0
    replies_in_round: int = 0
    replies_after_round: int = 0
    cells_in_round: int = 0
    cells_after_round: int = 0
    duplicates: int = 0
    reconstructed: int = 0
    targets: int = 0


@dataclass(frozen=True, slots=True)
class FetchPlan:
    """The query plan of one round: (peer, cells) pairs."""

    queries: tuple[tuple[int, frozenset[int]], ...]

    @property
    def cells_requested(self) -> int:
        return sum(len(cells) for _peer, cells in self.queries)


def score_peers(
    targets: set[int],
    candidate_cells: dict[int, set[int]],
    boost: dict[int, set[int]],
    cb_boost: float,
    weights: dict[int, float] | None = None,
) -> dict[int, float]:
    """Algorithm 1 lines 4-9: cells-of-interest count plus boost.

    ``boost`` maps a peer to cells the boost map locates at it; only
    those in ``targets`` count (the fetcher passes each boosted
    candidate's seeded target cells, already ANDed with the targets).
    ``weights`` (peer -> multiplier in ``(0, 1]``, default 1.0) folds
    per-peer reputation into the score: a peer that served corrupt
    cells or stalled past round deadlines is out-scored by clean peers
    holding the same cells, so queries drain away from it even before
    quarantine removes it outright.
    """
    scores: dict[int, float] = {}
    for peer, cells in candidate_cells.items():
        score = float(len(cells))
        boosted = boost.get(peer)
        if boosted:
            score += len(boosted & targets) * cb_boost
        if weights is not None:
            score *= weights.get(peer, 1.0)
        scores[peer] = score
    return scores


def plan_queries(
    targets: set[int],
    ordered_peers: list[int],
    candidate_cells: dict[int, set[int]],
    redundancy: int,
    max_cells_per_query: int | None = None,
) -> FetchPlan:
    """Algorithm 1 lines 11-17: greedy plan until every cell has k queries.

    ``max_cells_per_query`` caps each query at roughly one seeding
    parcel. Without it the top-scored (boosted) peers would be asked
    for entire line deficits by every co-custodian simultaneously,
    saturating their uplinks; parcel-sized queries spread the load
    across all holders — Table 1's ~12 cells per round-1 message.
    """
    under: set[int] = set(targets)
    planned_count: dict[int, int] = {}
    queries: list[tuple[int, frozenset[int]]] = []
    for peer in ordered_peers:
        if not under:
            break
        interesting = candidate_cells[peer] & under
        if not interesting:
            continue
        if max_cells_per_query is not None and len(interesting) > max_cells_per_query:
            # == set(sorted(interesting)[:max]) without the full sort
            interesting = set(heapq.nsmallest(max_cells_per_query, interesting))
        queries.append((peer, frozenset(interesting)))
        for cid in interesting:
            count = planned_count.get(cid, 0) + 1
            planned_count[cid] = count
            if count >= redundancy:
                under.discard(cid)
    return FetchPlan(tuple(queries))


@dataclass(slots=True)
class PeerQuery:
    """What a fetcher knows about one peer it queried this slot.

    Algorithm 1 tracks each query by peer; this is the one record every
    reader works from: candidate exclusion, recycling, timeout evidence,
    round attribution of replies, response acceptance (``asked``) and
    the query-lifecycle trace.
    """

    round: int  # the latest round the peer was queried in
    cells: frozenset[int]  # every cell asked of it this slot (union over re-queries)
    excluded: bool = True  # out of the candidate pool until recycled
    replied: bool = False  # answered at least once, even unusably
    timeout_reported: bool = False  # timeout evidence already fed to reputation
    req: int | None = None  # open trace request id (traced runs only)


class _Unobserved:
    """The bus stand-in of fetchers that report to none (baselines,
    retrieval clients, unit tests): every observation is dropped."""

    tracer = None

    def trace(self, kind: str, **data: Any) -> None:
        pass

    def round_latency(self, round_index: int, latency: float) -> None:
        pass


_UNOBSERVED = _Unobserved()
_NOT_ASKED: frozenset[int] = frozenset()


class AdaptiveFetcher:
    """Executes Algorithm 1 for one node and one slot.

    Decoupled from the node/transport through callables so the same
    machinery serves PANDAS nodes, baselines and unit tests:

    - ``line_custodians(line)``: view-filtered custodians of a line;
    - ``send_query(peer, cells)``: emit one QUERYCELLS datagram;
    - ``on_done(success)``: completion sink;
    - ``obs``: the run's observation bus (query-lifecycle trace and
      per-round reply latency), or None to observe nothing.
    """

    __slots__ = (
        "sim",
        "state",
        "schedule",
        "line_custodians",
        "send_query",
        "rng",
        "cb_boost",
        "self_id",
        "on_done",
        "fetch_custody",
        "_is_complete",
        "peer_weight",
        "exclude_peer",
        "on_peer_timeout",
        "retry_unresponsive",
        "retry_policy",
        "deadline_at",
        "retry_waves",
        "retry_abandoned",
        "obs",
        "slot",
        "queries",
        "boost",
        "_boost_cells",
        "inbound",
        "max_cells_per_query",
        "rounds",
        "started",
        "finished",
        "succeeded",
        "_timer",
    )

    def __init__(
        self,
        sim: Simulator,
        state: SlotCellState,
        schedule: FetchSchedule,
        line_custodians: Callable[[int], Iterable[int]],
        send_query: Callable[[int, frozenset[int]], None],
        rng: random.Random,
        cb_boost: float,
        self_id: int,
        on_done: Callable[[bool], None] | None = None,
        fetch_custody: bool = True,
        is_complete: Callable[[], bool] | None = None,
        max_cells_per_query: int | None = 16,
        peer_weight: Callable[[int], float] | None = None,
        exclude_peer: Callable[[int], bool] | None = None,
        on_peer_timeout: Callable[[int], None] | None = None,
        retry_unresponsive: bool = False,
        retry_policy: RetryPolicy | None = None,
        deadline_at: float | None = None,
        obs: ObservationBus | None = None,
        slot: int = -1,
    ) -> None:
        self.sim = sim
        self.state = state
        self.schedule = schedule
        self.line_custodians = line_custodians
        self.send_query = send_query
        self.rng = rng
        self.cb_boost = cb_boost
        self.self_id = self_id
        self.on_done = on_done
        # baselines disable consolidation: fetch samples only and
        # consider the slot done once sampling completes
        self.fetch_custody = fetch_custody
        self._is_complete = is_complete
        # reputation hooks (repro.core.reputation): score multiplier,
        # quarantine filter, and the timeout-evidence sink
        self.peer_weight = peer_weight
        self.exclude_peer = exclude_peer
        self.on_peer_timeout = on_peer_timeout
        # Robustness extension to Algorithm 1 (off by default): once the
        # candidate pool is exhausted, peers whose round expired with no
        # reply may be queried a second time. Without it, loss bursts,
        # partitions or withholding peers can permanently starve a node
        # that has already spent its one query per custodian.
        self.retry_unresponsive = retry_unresponsive
        # Deadline-aware backoff on top of the recycle hatch (overload
        # control). ``retry_policy is None`` keeps the legacy immediate
        # recycle bit-identical; with a policy, exhausted-pool retries
        # wait a seeded jittered exponential backoff between waves and
        # are abandoned outright once ``deadline_at`` (absolute sim
        # time) can no longer be met or ``max_waves`` is spent.
        self.retry_policy = retry_policy
        self.deadline_at = deadline_at
        self.retry_waves = 0
        self.retry_abandoned = False
        # Observation (repro.obs): trace events and reply latency go to
        # the run's bus. With a tracer attached every query gets a
        # request id at issue time and terminates in exactly one of
        # response/timeout/cancel; without one none of that bookkeeping
        # runs. Pure observation — no RNG, no scheduling — so observed
        # and unobserved runs are behaviorally identical.
        self.obs: ObservationBus | _Unobserved = obs if obs is not None else _UNOBSERVED
        self.slot = slot
        # peer -> its query record, in first-query order
        self.queries: dict[int, PeerQuery] = {}

        # Boost map and inbound cells as per-custody-line bitmasks in the
        # layout of SlotCellState.mark: peer -> {line: mask} for the
        # boost map, line -> mask for its union and for inbound.
        self.boost: dict[int, dict[int, int]] = {}
        self._boost_cells: dict[int, int] = {}
        self.inbound: dict[int, int] = {}
        self.max_cells_per_query = max_cells_per_query
        self.rounds: list[RoundStats] = []
        self.started = False
        self.finished = False
        self.succeeded = False
        self._timer: Event | None = None

    # ------------------------------------------------------------------
    # boost map
    # ------------------------------------------------------------------
    def add_boost(self, peer: int, cells: Iterable[int]) -> None:
        """Merge consolidation-boost info arriving with seed parcels.

        ``cells`` is read once. Boost entries are cells of this node's
        custody lines (the builder's CB map for those lines); cells off
        the custody lines carry no boost.
        """
        bucket = self.boost.get(peer)
        if bucket is None:
            bucket = self.boost[peer] = {}
        self.state.mark(bucket, cells)
        union = self._boost_cells
        for line, mask in bucket.items():
            union[line] = union.get(line, 0) | mask

    def add_inbound(self, cells: Iterable[int]) -> None:
        """Cells the builder declared (or delivered) as seeded to us.

        Excluded from fetch targets: re-requesting data already in
        flight from the builder would only manufacture duplicates
        (Table 1 reports zero round-1 duplicates). Only custody-line
        cells are kept: those are the only ones targeted by line.
        """
        self.state.mark(self.inbound, cells)

    def boosted_cells(self, peer: int) -> set[int]:
        """Cells the boost map locates at ``peer``."""
        return self.state.cells_in(self.boost.get(peer, {}))

    def inbound_cells(self) -> set[int]:
        """Custody-line cells declared inbound from the builder."""
        return self.state.cells_in(self.inbound)

    # ------------------------------------------------------------------
    # the query ledger
    # ------------------------------------------------------------------
    def asked(self, peer: int) -> frozenset[int]:
        """Every cell asked of ``peer`` this slot (empty if never queried).

        A reply is solicited exactly when this is non-empty, including a
        late reply from a peer that was recycled and not re-queried.
        """
        query = self.queries.get(peer)
        return _NOT_ASKED if query is None else query.cells

    def _expired(self, query: PeerQuery, now: float) -> bool:
        """Has the round of ``query`` reached its deadline?

        Rounds fire exactly at the previous deadline, so expiry is
        ``deadline <= now``, not strict.
        """
        rnd = query.round
        return rnd <= len(self.rounds) and self.rounds[rnd - 1].deadline <= now

    def _open_requests(self) -> list[tuple[int, int, PeerQuery]]:
        """``(req, peer, query)`` of every traced query not yet closed,
        in issue order (request ids are monotonic)."""
        return sorted(
            (query.req, peer, query)
            for peer, query in self.queries.items()
            if query.req is not None
        )

    def _trace_expire_queries(self) -> None:
        """Close open queries whose round deadline has passed.

        A silent peer's query closes as ``query_timeout``; a peer that
        replied (even unusably — ``note_reply`` with payloads that all
        failed validation) closes as an unusable ``query_response`` so
        it is never double-reported as a timeout.
        """
        if self.obs.tracer is None:
            return
        now = self.sim.now
        for req, peer, query in self._open_requests():
            if not self._expired(query, now):
                continue
            query.req = None
            if query.replied:
                self.obs.trace(
                    "query_response", slot=self.slot, node=self.self_id, req=req,
                    peer=peer, round=query.round, cells=0, new=0, reconstructed=0,
                    late=True, usable=False,
                )
            else:
                self.obs.trace("query_timeout", slot=self.slot, node=self.self_id, req=req,
                               peer=peer, round=query.round)

    def _trace_close_open(self) -> None:
        """Terminate every still-open query when the fetcher ends.

        Expired ones close as timeout/unusable-response first; the rest
        close as ``query_cancel`` (the fetcher finished or was stopped
        before their round expired).
        """
        if self.obs.tracer is None:
            return
        self._trace_expire_queries()
        for req, peer, query in self._open_requests():
            query.req = None
            if query.replied:
                self.obs.trace(
                    "query_response", slot=self.slot, node=self.self_id, req=req,
                    peer=peer, round=query.round, cells=0, new=0, reconstructed=0,
                    late=False, usable=False,
                )
            else:
                self.obs.trace("query_cancel", slot=self.slot, node=self.self_id, req=req,
                               peer=peer, round=query.round)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin round 1 (idempotent)."""
        if self.started:
            return
        self.started = True
        self.obs.trace("fetch_start", slot=self.slot, node=self.self_id, custody=self.fetch_custody)
        if self.complete:
            self._finish(True, "complete")
            return
        self._run_round(1)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self.finished:
            self._trace_close_open()
            if self.started:
                self.obs.trace("fetch_done", slot=self.slot, node=self.self_id,
                               success=False, reason="stopped")
        self.finished = True

    # ------------------------------------------------------------------
    # round targeting (F of Algorithm 1, deficit-driven)
    # ------------------------------------------------------------------
    def round_targets(self, round_index: int = 1) -> set[int]:
        """Missing samples plus per-line reconstruction deficits.

        Deficits are *net of declared inbound*: cells the builder said
        it is sending us count toward the reconstruction threshold, so
        fetching them from peers would only duplicate the seed stream
        (when the per-node seed share already exceeds half a line, the
        correct fetch volume is zero). Once the schedule settles onto
        its tail timeout (``schedule.settle_round`` — round 3, ~600 ms
        after the burst began, on the default schedule) undelivered
        inbound cells are treated as lost — the 3% UDP loss escape
        hatch — and become fetchable again.

        Within a line, prefer boost-located cells (retrievable *now*),
        then other non-inbound cells, then stale inbound, each in
        ascending position order.
        """
        state = self.state
        targets = set(state.missing_samples())
        if not self.fetch_custody:
            return targets
        trust_inbound = round_index < self.schedule.settle_round
        inbound = self.inbound
        boosted = self._boost_cells
        cell_at = state.cell_at
        for line in state.custody_lines:
            deficit = state.line_deficit(line)
            if deficit <= 0:
                continue
            missing = state.missing_mask(line)
            late = missing & inbound.get(line, 0)
            ready = missing ^ late
            boost = ready & boosted.get(line, 0)
            if trust_inbound:
                deficit -= late.bit_count()
                tiers: tuple[int, ...] = (boost, ready ^ boost)
            else:
                tiers = (boost, ready ^ boost, late)
            for tier in tiers:
                for pos in bit_positions(tier):
                    if deficit <= 0:
                        break
                    targets.add(cell_at(line, pos))
                    deficit -= 1
        return targets

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def _run_round(self, index: int) -> None:
        self._timer = None
        if self.finished:
            return
        # trace bookkeeping first so queries that expired at this tick
        # close as timeouts even if the fetcher completes or gives up now
        self._trace_expire_queries()
        if self.complete:
            self._finish(True, "complete")
            return
        if index >= self.schedule.max_rounds:
            self._finish(False, "exhausted")
            return

        self._report_timeouts()

        stats = RoundStats(index=index, started_at=self.sim.now)
        stats.deadline = self.sim.now + self.schedule.timeout(index)
        self.rounds.append(stats)

        targets = self.round_targets(index)
        stats.targets = len(targets)
        settle = self.schedule.settle_round
        obs, slot, node = self.obs, self.slot, self.self_id
        candidate_cells, seeded, weights = self._candidate_cells(targets)
        backoff: float | None = None
        if not candidate_cells and targets and index >= settle and self.retry_unresponsive:
            # Every custodian of the remaining targets has been queried
            # once already. Under loss, partitions or withholding peers
            # that is not the end: peers whose round expired without any
            # reply are returned to the candidate pool for one more try
            # (their earlier query or reply was probably lost). Peers
            # that *did* reply stay consumed — re-asking a peer that
            # answered only manufactures duplicates.
            policy = self.retry_policy
            if policy is not None and not self._retry_wave_allowed(policy, index):
                # deadline-aware budget: a backed-off wave could no
                # longer complete before the fetcher's deadline (or the
                # wave budget is spent), so the work is abandoned rather
                # than retried into a slot it already missed
                self.retry_abandoned = True
                obs.trace("retry_abandoned", slot=slot, node=node, round=index,
                          waves=self.retry_waves, targets=stats.targets)
            else:
                # If that still leaves nothing, the remaining targets'
                # custodians all *answered*, yet the cells never
                # materialized — corrupt responders whose payloads failed
                # verification, or replies that did not cover these
                # cells. Re-open them too; reputation weighting and
                # quarantine steer the retry toward whoever served honestly.
                for pool in ("unresponsive", "responded"):
                    recycled = self._recycle(silent_only=pool == "unresponsive")
                    if recycled:
                        obs.trace("query_recycle", slot=slot, node=node, pool=pool, count=recycled)
                        candidate_cells, seeded, weights = self._candidate_cells(targets)
                    if candidate_cells:
                        break
                if candidate_cells and policy is not None:
                    # back off before re-querying: the recycled peers go
                    # back in the pool now, but the wave itself runs
                    # after a seeded jittered exponential delay instead
                    # of re-hammering them on the round tick
                    backoff = self._next_backoff(policy)
                    obs.trace("retry_backoff", slot=slot, node=node, round=index,
                              wave=self.retry_waves, delay=backoff)
        delay: float | None = self.schedule.timeout(index)
        if backoff is not None:
            delay = backoff
        elif candidate_cells:
            scores = score_peers(targets, candidate_cells, seeded, self.cb_boost, weights)
            peers = list(candidate_cells)
            self.rng.shuffle(peers)  # unbiased tie-break among equal scores
            peers.sort(key=lambda p: scores[p], reverse=True)
            plan = plan_queries(
                targets, peers, candidate_cells, self.schedule.redundancy_for(index),
                max_cells_per_query=self.max_cells_per_query,
            )
            tracer = obs.tracer
            queries = self.queries
            for peer, cells in plan.queries:
                query = queries.get(peer)
                if query is None:
                    query = queries[peer] = PeerQuery(index, cells)
                else:
                    # a recycled peer: a late reply to its earlier query
                    # stays acceptable, so the asked cells accumulate
                    if query.req is not None:
                        # its prior query never closed through sweep or
                        # response: close it explicitly so every req
                        # terminates exactly once
                        obs.trace("query_cancel", slot=slot, node=node, req=query.req,
                                  peer=peer, round=query.round)
                        query.req = None
                    query.round = index
                    query.cells |= cells
                    query.excluded = True
                if tracer is not None:
                    query.req = tracer.next_request_id()
                    obs.trace("query_issue", slot=slot, node=node, req=query.req, peer=peer,
                              round=index, cells=len(cells))
                self.send_query(peer, cells)
            stats.messages_sent = len(plan.queries)
            stats.cells_requested = plan.cells_requested
        elif index >= settle:
            # Inbound cells are no longer trusted once the schedule
            # settles and even already-queried peers are recycled
            # above, so an empty plan here means nobody reachable can
            # serve the remaining targets. Stop scheduling; buffered
            # replies already in flight may still complete the state.
            # (Pre-settle rounds may have empty plans only because lost
            # inbound cells are still trusted: they keep ticking so the
            # settle round retries.)
            delay = None
        obs.trace("fetch_round", slot=slot, node=node, round=index, targets=stats.targets,
                  queries=stats.messages_sent, cells=stats.cells_requested)
        if delay is not None:
            self._timer = self.sim.call_after(delay, self._run_round, index + 1)

    def _candidate_cells(
        self, targets: set[int]
    ) -> tuple[dict[int, set[int]], dict[int, set[int]], dict[int, float] | None]:
        """Queryable peers mapped to the cells to ask them for.

        Returns ``(candidates, seeded, weights)``. Peers in the
        consolidation-boost map are offered only the cells the builder
        actually seeded to them (``seeded``: their boost masks ANDed
        with the targets line by line) — those are servable
        *immediately*; their other custody cells would only arrive after
        the peer's own consolidation. Unboosted peers are fallback
        holders for anything on their lines. ``weights`` holds each
        candidate's ``peer_weight`` (None without that hook).

        Candidates appear in first-encounter order: missing lines in
        order of first appearance in ``targets``, then each line's
        custodians in index order. Most custodians share exactly one
        line with us, so they reference the line's missing set directly
        instead of copying it, and multi-line unions are computed once
        per distinct line combination. The sets are read-only downstream
        (plan_queries intersects into fresh sets), so sharing is safe.
        """
        missing_by_line: dict[int, set[int]] = {}
        params = self.state.params
        ext_cols = params.ext_cols
        ext_rows = params.ext_rows
        get_line = missing_by_line.get
        for cid in targets:
            row = cid // ext_cols
            bucket = get_line(row)
            if bucket is None:
                missing_by_line[row] = {cid}
            else:
                bucket.add(cid)
            col_line = ext_rows + cid - row * ext_cols
            bucket = get_line(col_line)
            if bucket is None:
                missing_by_line[col_line] = {cid}
            else:
                bucket.add(cid)

        # one pass over (line, custodian) pairs; exclusion and weight
        # are resolved once, when a peer is first encountered
        first_line: dict[int, int] = {}
        more_lines: dict[int, list[int]] = {}
        weights: dict[int, float] | None = None
        exclude = self.exclude_peer
        weight = self.peer_weight
        if weight is not None:
            weights = {}
        line_custodians = self.line_custodians
        skip = {peer for peer, query in self.queries.items() if query.excluded}
        skip.add(self.self_id)
        for line in missing_by_line:
            for peer in line_custodians(line):
                if peer in skip:
                    continue
                if peer in first_line:
                    lines = more_lines.get(peer)
                    if lines is None:
                        more_lines[peer] = [first_line[peer], line]
                    else:
                        lines.append(line)
                elif exclude is not None and exclude(peer):
                    skip.add(peer)
                else:
                    first_line[peer] = line
                    if weights is not None:
                        weights[peer] = weight(peer)
        candidates = {peer: missing_by_line[line] for peer, line in first_line.items()}
        union_cache: dict[tuple[int, ...], set[int]] = {}
        for peer, lines in more_lines.items():
            key = tuple(lines)
            union = union_cache.get(key)
            if union is None:
                union = union_cache[key] = set().union(*[missing_by_line[ln] for ln in key])
            candidates[peer] = union

        seeded: dict[int, set[int]] = {}
        if self.boost and candidates:
            state = self.state
            target_masks: dict[int, int] = {}
            state.mark(target_masks, targets)
            for peer, bucket in self.boost.items():
                if peer not in candidates:
                    continue
                cells: set[int] = set()
                for line, mask in bucket.items():
                    hit = mask & target_masks.get(line, 0)
                    if hit:
                        cells.update(state.cells_of(line, hit))
                if cells:
                    candidates[peer] = seeded[peer] = cells
        return candidates, seeded, weights

    def _retry_wave_allowed(self, policy: RetryPolicy, index: int) -> bool:
        """Can one more retry wave still pay off before the deadline?

        Checked with the *worst-case* jittered delay so the RNG is only
        drawn when a wave is actually scheduled: an abandoned retry
        consumes no randomness and replays identically. The wave must
        leave room for its own round timeout — a reply that cannot
        arrive before ``deadline_at`` is not worth asking for.
        """
        if self.retry_waves >= policy.max_waves:
            return False
        if self.deadline_at is None:
            return True
        worst = policy.backoff(self.retry_waves) * (1.0 + policy.jitter)
        return self.sim.now + worst + self.schedule.timeout(index + 1) <= self.deadline_at

    def _next_backoff(self, policy: RetryPolicy) -> float:
        """Consume one retry wave; return its jittered backoff delay.

        The jitter multiplier draws from the fetcher's seeded stream
        (``self.rng``), never the global ``random`` module, so backoff
        timing is part of the deterministic replay like everything else.
        """
        wave = self.retry_waves
        self.retry_waves = wave + 1
        delay = policy.backoff(wave)
        if policy.jitter > 0.0:
            delay *= 1.0 + policy.jitter * self.rng.random()
        return delay

    def _recycle(self, silent_only: bool) -> int:
        """Return excluded peers whose query round expired to the pool.

        With ``silent_only`` only peers that never replied are recycled;
        without it, as a last resort, peers that replied but left
        targets unmet are too. Quarantined peers remain excluded by
        ``_candidate_cells``, and the reputation weight makes honest
        servers out-score the liars that forced the retry. Returns how
        many peers were recycled.
        """
        now = self.sim.now
        recycled = 0
        for query in self.queries.values():
            if query.excluded and not (silent_only and query.replied) and self._expired(query, now):
                query.excluded = False
                recycled += 1
        return recycled

    def _report_timeouts(self) -> None:
        """Feed peers that missed their round deadline to the reputation sink.

        A peer is reported at most once per slot, and only once the
        round it was queried in has expired without any reply from it.
        Late (deferred) replies are legitimate protocol behaviour, which
        is why timeout evidence carries the lowest reputation weight.
        """
        if self.on_peer_timeout is None:
            return
        now = self.sim.now
        for peer, query in self.queries.items():
            if query.replied or query.timeout_reported:
                continue
            if self._expired(query, now):
                query.timeout_reported = True
                self.on_peer_timeout(peer)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def note_reply(self, peer: int) -> None:
        """Mark ``peer`` as having answered (even with no usable cells).

        The node calls this before dropping invalid/duplicate payloads
        so a peer that *replied* is never also reported as timed out —
        corrupt responders are punished once, as corrupt, not twice.
        """
        query = self.queries.get(peer)
        if query is not None:
            query.replied = True

    def on_response(self, peer: int, cells: tuple[int, ...]) -> tuple[int, int]:
        """Account a CellResponse; returns (new_cells, reconstructed).

        Updates the custody state so duplicate accounting and round
        attribution stay consistent.
        """
        query = self.queries.get(peer)
        if query is not None:
            query.replied = True
        new_count, reconstructed = self.state.add_cells(cells)
        obs = self.obs
        if query is not None and query.round <= len(self.rounds):
            now = self.sim.now
            stats = self.rounds[query.round - 1]
            obs.round_latency(query.round, now - stats.started_at)
            if now <= stats.deadline:
                stats.replies_in_round += 1
                stats.cells_in_round += new_count
            else:
                stats.replies_after_round += 1
                stats.cells_after_round += new_count
            stats.duplicates += len(cells) - new_count
            stats.reconstructed += reconstructed
        if obs.tracer is not None:
            if query is not None and query.req is not None:
                rnd = query.round
                late = rnd <= len(self.rounds) and self.sim.now > self.rounds[rnd - 1].deadline
                obs.trace(
                    "query_response", slot=self.slot, node=self.self_id, req=query.req,
                    peer=peer, round=rnd, cells=len(cells), new=new_count,
                    reconstructed=reconstructed, late=late, usable=True,
                )
                query.req = None
            else:
                # the query already closed (timeout sweep or recycle);
                # a legitimate deferred reply, recorded but non-terminal
                obs.trace("query_late_reply", slot=self.slot, node=self.self_id, peer=peer,
                          cells=len(cells), new=new_count)
        if self.complete:
            self._finish(True, "complete")
        return new_count, reconstructed

    def note_external_cells(self, reconstructed: int) -> None:
        """Seed arrivals reconstruct lines too; attribute to current round."""
        if self.rounds and reconstructed:
            self.rounds[-1].reconstructed += reconstructed
        if self.started and self.complete:
            self._finish(True, "complete")

    @property
    def complete(self) -> bool:
        """Has the fetcher achieved its goal for this slot?"""
        if self._is_complete is not None:
            return self._is_complete()
        if self.fetch_custody:
            return self.state.complete
        return self.state.sampling_complete

    # ------------------------------------------------------------------
    def _finish(self, success: bool, reason: str) -> None:
        if self.finished:
            return
        self.finished = True
        self.succeeded = success
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._trace_close_open()
        self.obs.trace(
            "fetch_done", slot=self.slot, node=self.self_id, success=success, reason=reason
        )
        if self.on_done is not None:
            self.on_done(success)
