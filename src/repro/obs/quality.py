"""Live prequential model quality: the next check-in grades the last answer.

A next-POI recommender's ground truth arrives on its own ingest path: a
user we just served *will check in somewhere*, and that check-in is the
delayed label for the ranked list we returned.  :class:`QualityMonitor`
closes that loop on the serving path itself:

* :meth:`record` captures each served prediction — user, top-K POI ids,
  ``history_version``, cold-start stratum — in a **bounded pending
  ring** (an ordered dict in serve order, FIFO-evicted at
  ``max_pending``).  Predictions that already carry a ground-truth
  target (prequential replay tapes, evaluation traffic) skip the ring
  and join immediately: the label is in hand, waiting for an ingest
  event that replay has already applied would join never or twice.
* :meth:`observe_checkin` runs as a :class:`~repro.stream.ingest.StreamIngest`
  observer.  The user's next check-in joins the pending entry
  **exactly once** (``pop``; a second check-in finds nothing).  If the
  store rolled the session (the 72h gap rule, or a forced roll), the
  prediction's context is stale — the entry *expires*, no join.  Each
  event also advances an event-time watermark that lazily sweeps
  pending entries whose serve-time context is older than ``gap_hours``,
  so unlabelled predictions cannot pin memory even if their users never
  return (the ring bound is the hard backstop).
* joins update sliding-window Recall@K / MRR / NDCG estimators,
  stratified by **cold-start bucket** — ``"0"``, ``"1"``, ``"2+"``
  prior sessions — as :class:`~repro.obs.metrics.WindowedCounter`
  instruments in a shared :class:`MetricsRegistry`, so the numbers ride
  the existing Prometheus exposition and merge across shard processes
  by the same snapshot discipline as histograms.

Rank accounting (mirrored by the tests, exact by construction): the
label's rank is its 1-based position in the *stored top-K* list, a miss
otherwise.  Recall@k = joins with rank <= k / joins; MRR sums 1/rank
for ranks within top-K (0 for misses); NDCG@k sums 1/log2(rank+1) for
ranks <= k.  All ratios are windowed-sum quotients, so any scrape is a
consistent point-in-time estimate.

Durability: the pending ring is deliberately **ephemeral** — it is
serving-process state, not model state.  After a crash-and-recover the
store rebuilds from WAL+snapshot but pending predictions are gone:
joins/expiries restart from clean counters on the recovered shard, and
no stale pre-crash entry can ever mis-join post-recovery traffic.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, WindowedCounter

__all__ = ["QualityMonitor", "cold_start_stratum", "merge_summaries", "STRATA"]

STRATA: Tuple[str, ...] = ("0", "1", "2+")


def cold_start_stratum(num_prior_sessions: int) -> str:
    """Cold-start bucket from the user's completed-session count."""
    if num_prior_sessions <= 0:
        return "0"
    if num_prior_sessions == 1:
        return "1"
    return "2+"


def _stratum_block(
    joins: float, hits: Dict[str, float], mrr_sum: float, ndcg_sum: Dict[str, float]
) -> Dict:
    """One stratum's report: its raw windowed sums plus the ratios."""
    return {
        "window": {
            "joins": joins,
            "hits": hits,
            "mrr_sum": mrr_sum,
            "ndcg_sum": ndcg_sum,
        },
        "recall": {k: (v / joins if joins else 0.0) for k, v in hits.items()},
        "mrr": mrr_sum / joins if joins else 0.0,
        "ndcg": {k: (v / joins if joins else 0.0) for k, v in ndcg_sum.items()},
    }


def _add_counts(maps) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for counts in maps:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + int(value)
    return total


def merge_summaries(reports: Sequence[Dict]) -> Dict:
    """Merge quality reports of monitors that saw disjoint users.

    ``reports`` are :meth:`QualityMonitor.summary` dicts, optionally
    extended as a server's ``GET /quality`` report (``store_strata``,
    ``drift``).  Counters and each stratum's raw windowed sums add, and
    the ratios are recomputed from the sums: a mean of per-report ratios
    would weight an idle shard equal to a busy one.  Drift stays per
    report (each sees a different event slice, so PSI does not add);
    ``drift_alert`` is any report's alert.
    """
    ks = sorted({str(k) for r in reports for k in r.get("ks", [])}, key=int)
    merged: Dict = {
        key: sum(r.get(key, 0) for r in reports)
        for key in ("pending", "expired", "replaced", "evicted")
    }
    merged["predictions"] = _add_counts(r.get("predictions", {}) for r in reports)
    merged["joins"] = _add_counts(r.get("joins", {}) for r in reports)
    merged["strata"] = {}
    for s in sorted({s for r in reports for s in r.get("strata", {})}):
        windows = [r["strata"][s]["window"] for r in reports if s in r.get("strata", {})]
        merged["strata"][s] = _stratum_block(
            joins=sum(w.get("joins", 0) for w in windows),
            hits={k: sum(w.get("hits", {}).get(k, 0) for w in windows) for k in ks},
            mrr_sum=sum(w.get("mrr_sum", 0.0) for w in windows),
            ndcg_sum={
                k: sum(w.get("ndcg_sum", {}).get(k, 0.0) for w in windows) for k in ks
            },
        )
    store_strata = _add_counts(r.get("store_strata", {}) for r in reports)
    if store_strata:
        merged["store_strata"] = store_strata
    merged["drift_alert"] = any(r.get("drift", {}).get("alert", False) for r in reports)
    return merged


class _Pending:
    """One unlabelled served prediction awaiting its user's next check-in."""

    __slots__ = ("user_id", "top_pois", "stratum", "history_version", "last_timestamp")

    def __init__(self, user_id, top_pois, stratum, history_version, last_timestamp):
        self.user_id = user_id
        self.top_pois = top_pois
        self.stratum = stratum
        self.history_version = history_version
        self.last_timestamp = last_timestamp


class QualityMonitor:
    """Prequential Recall@K/MRR/NDCG over a sliding window, by stratum.

    Thread-safe: server workers ``record`` concurrently while the
    ingest thread joins.  All estimator state lives in registry
    instruments; the monitor itself only owns the pending ring.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        window_seconds: float = 3600.0,
        top_k: int = 20,
        ks: Sequence[int] = (5, 10, 20),
        max_pending: int = 4096,
        gap_hours: float = 72.0,
        slots: int = 60,
        clock=None,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if gap_hours <= 0:
            raise ValueError("gap_hours must be positive")
        self.ks = tuple(sorted({int(k) for k in ks}))
        if not self.ks or self.ks[0] < 1:
            raise ValueError("ks must be positive integers")
        # storing fewer ids than the largest requested cutoff would
        # silently undercount hits@k; widen the stored list instead
        self.top_k = max(int(top_k), self.ks[-1])
        self.window_seconds = float(window_seconds)
        self.max_pending = int(max_pending)
        # event timestamps are in hours everywhere in this codebase
        # (StoreConfig.gap_hours is compared to raw timestamp deltas),
        # so the sweep horizon stays in the same units — converting to
        # seconds would make the sweep effectively never fire
        self.gap_hours = float(gap_hours)
        self.registry = registry if registry is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._pending: "OrderedDict[int, _Pending]" = OrderedDict()
        self._event_watermark = float("-inf")

        reg = self.registry
        self._predictions = {
            s: reg.counter(
                "repro_quality_predictions",
                "Served predictions recorded by the quality monitor",
                {"stratum": s},
            )
            for s in STRATA
        }
        self._joins_total = {
            s: reg.counter(
                "repro_quality_joins",
                "Check-ins joined against a served prediction",
                {"stratum": s},
            )
            for s in STRATA
        }
        self._expired = reg.counter(
            "repro_quality_expired",
            "Pending predictions expired by session roll or the gap rule",
        )
        self._replaced = reg.counter(
            "repro_quality_replaced",
            "Pending predictions superseded by a newer one (latest wins)",
        )
        self._evicted = reg.counter(
            "repro_quality_evicted",
            "Pending predictions dropped by the FIFO ring bound",
        )
        reg.gauge(
            "repro_quality_pending",
            "Served predictions awaiting their user's next check-in",
            fn=lambda: float(len(self._pending)),
        )
        reg.gauge(
            "repro_quality_window_seconds", "Quality estimator window"
        ).set(self.window_seconds)
        reg.gauge(
            "repro_quality_topk", "Ranked-list depth stored per prediction"
        ).set(float(self.top_k))

        def _windowed(name: str, help: str, labels: Dict[str, str]) -> WindowedCounter:
            return reg.windowed(
                name,
                help,
                labels,
                window_seconds=self.window_seconds,
                slots=slots,
                clock=clock,
            )

        self._w_joins = {
            s: _windowed(
                "repro_quality_window_joins", "Joins in the window", {"stratum": s}
            )
            for s in STRATA
        }
        self._w_mrr = {
            s: _windowed(
                "repro_quality_window_mrr_sum",
                "Sum of reciprocal ranks in the window",
                {"stratum": s},
            )
            for s in STRATA
        }
        self._w_hits = {
            (s, k): _windowed(
                "repro_quality_window_hits",
                "Joins whose label ranked within k",
                {"stratum": s, "k": str(k)},
            )
            for s in STRATA
            for k in self.ks
        }
        self._w_ndcg = {
            (s, k): _windowed(
                "repro_quality_window_ndcg_sum",
                "Sum of NDCG@k gains in the window",
                {"stratum": s, "k": str(k)},
            )
            for s in STRATA
            for k in self.ks
        }

        # ratio gauges are callbacks over the windowed sums: the hot
        # path pays nothing, and "all" is the strata sum at read time
        def _ratio(num, den):
            def read():
                j = den()
                return num() / j if j else 0.0

            return read

        for s in STRATA + ("all",):
            strata = STRATA if s == "all" else (s,)

            def joins_of(strata=strata):
                return sum(self._w_joins[x].value for x in strata)

            reg.gauge(
                "repro_quality_mrr",
                "Windowed mean reciprocal rank",
                {"stratum": s},
                fn=_ratio(
                    lambda strata=strata: sum(self._w_mrr[x].value for x in strata),
                    joins_of,
                ),
            )
            for k in self.ks:
                reg.gauge(
                    "repro_quality_recall",
                    "Windowed Recall@k",
                    {"stratum": s, "k": str(k)},
                    fn=_ratio(
                        lambda strata=strata, k=k: sum(
                            self._w_hits[(x, k)].value for x in strata
                        ),
                        joins_of,
                    ),
                )
                reg.gauge(
                    "repro_quality_ndcg",
                    "Windowed NDCG@k",
                    {"stratum": s, "k": str(k)},
                    fn=_ratio(
                        lambda strata=strata, k=k: sum(
                            self._w_ndcg[(x, k)].value for x in strata
                        ),
                        joins_of,
                    ),
                )

    # ------------------------------------------------------------------
    # serve side
    # ------------------------------------------------------------------
    def record(self, sample, result) -> Optional[str]:
        """Record one served prediction; returns the path it took.

        ``sample`` duck-types :class:`PredictionSample` (``user_id``,
        ``history``, ``prefix``, ``target``, ``history_key``);
        ``result`` needs only ``ranked_pois``.  Labelled samples join
        immediately (``"joined"``); unlabelled ones enter the pending
        ring (``"pending"``).  Anonymous traffic (negative user id)
        cannot ever be joined and is skipped (``None``).
        """
        user_id = getattr(sample, "user_id", -1)
        if user_id is None or user_id < 0:
            return None
        stratum = cold_start_stratum(len(getattr(sample, "history", ()) or ()))
        top = result.ranked_pois[: self.top_k]
        # ndarray.tolist() is one C call; the element-wise int() loop it
        # replaces dominated the per-prediction cost on the serving path
        top_pois = top.tolist() if hasattr(top, "tolist") else [int(p) for p in top]
        self._predictions[stratum].inc()
        target = getattr(sample, "target", None)
        if target is not None:
            self._join(stratum, top_pois, int(target.poi_id))
            return "joined"
        history_key = getattr(sample, "history_key", None)
        history_version = (
            history_key[2]
            if isinstance(history_key, tuple) and len(history_key) >= 3
            else None
        )
        prefix = getattr(sample, "prefix", ()) or ()
        context_timestamp = (
            float(prefix[-1].timestamp) if len(prefix) else None
        )
        replaced = evicted = 0
        with self._lock:
            # prefix-less predictions (user unknown to the store) carry
            # no event-time context; age them from the stream watermark
            # at serve time so the gap sweep still applies post-startup
            last_timestamp = (
                context_timestamp
                if context_timestamp is not None
                else self._event_watermark
            )
            entry = _Pending(
                user_id, top_pois, stratum, history_version, last_timestamp
            )
            if user_id in self._pending:
                del self._pending[user_id]  # latest wins, re-enter at the tail
                replaced = 1
            self._pending[user_id] = entry
            while len(self._pending) > self.max_pending:
                self._pending.popitem(last=False)
                evicted += 1
        if replaced:
            self._replaced.inc(replaced)
        if evicted:
            self._evicted.inc(evicted)
        return "pending"

    # ------------------------------------------------------------------
    # ingest side
    # ------------------------------------------------------------------
    def observe_checkin(self, event, append_result=None) -> Optional[str]:
        """Join ``event`` against its user's pending prediction, if any.

        ``append_result`` is the store's :class:`AppendResult`; when it
        reports ``session_rolled`` the prediction expired (its serving
        context belonged to the previous session).  Returns ``"joined"``,
        ``"expired"``, or ``None`` (nothing pending for this user).
        """
        timestamp = float(getattr(event, "timestamp", float("-inf")))
        swept: List[_Pending] = []
        with self._lock:
            if timestamp > self._event_watermark:
                self._event_watermark = timestamp
            entry = self._pending.pop(int(event.user_id), None)
            # lazy gap-rule sweep from the FIFO head: entries served
            # against context older than the gap can never join
            horizon = self._event_watermark - self.gap_hours
            while self._pending:
                _, oldest = next(iter(self._pending.items()))
                # entries served before any stream event carry no
                # event-time context at all (-inf); only the ring bound
                # can reclaim them — never the gap sweep
                if (
                    oldest.last_timestamp == float("-inf")
                    or oldest.last_timestamp > horizon
                ):
                    break
                self._pending.popitem(last=False)
                swept.append(oldest)
        if swept:
            self._expired.inc(len(swept))
        if entry is None:
            return None
        if append_result is not None and getattr(append_result, "session_rolled", False):
            self._expired.inc()
            return "expired"
        self._join(entry.stratum, entry.top_pois, int(event.poi_id))
        return "joined"

    def _join(self, stratum: str, top_pois: Sequence[int], label_poi: int) -> None:
        try:
            rank = top_pois.index(label_poi) + 1
        except ValueError:
            rank = None
        self._joins_total[stratum].inc()
        # every windowed instrument shares the monitor's window shape,
        # so one clock read serves the whole fan-out (up to 8 cells)
        joins = self._w_joins[stratum]
        slot = joins._now_slot()
        joins.inc_at(slot)
        if rank is None:
            return
        self._w_mrr[stratum].inc_at(slot, 1.0 / rank)
        gain = 1.0 / math.log2(rank + 1)
        for k in self.ks:
            if rank <= k:
                self._w_hits[(stratum, k)].inc_at(slot)
                self._w_ndcg[(stratum, k)].inc_at(slot, gain)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def summary(self) -> Dict:
        """JSON-safe report: totals, per-stratum windows, and ratios.

        Each stratum carries its **raw windowed sums** alongside the
        ratios so per-shard summaries merge by addition
        (:func:`merge_summaries`).
        """
        strata: Dict[str, Dict] = {}
        for s in STRATA + ("all",):
            group = STRATA if s == "all" else (s,)
            strata[s] = _stratum_block(
                joins=sum(self._w_joins[x].value for x in group),
                hits={
                    str(k): sum(self._w_hits[(x, k)].value for x in group)
                    for k in self.ks
                },
                mrr_sum=sum(self._w_mrr[x].value for x in group),
                ndcg_sum={
                    str(k): sum(self._w_ndcg[(x, k)].value for x in group)
                    for k in self.ks
                },
            )
        return {
            "enabled": True,
            "window_seconds": self.window_seconds,
            "top_k": self.top_k,
            "ks": list(self.ks),
            "pending": len(self._pending),
            "max_pending": self.max_pending,
            "predictions": {s: int(c.value) for s, c in self._predictions.items()},
            "joins": {s: int(c.value) for s, c in self._joins_total.items()},
            "expired": int(self._expired.value),
            "replaced": int(self._replaced.value),
            "evicted": int(self._evicted.value),
            "strata": strata,
        }
