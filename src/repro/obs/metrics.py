"""Thread-safe metrics registry: counters, gauges, bucketed histograms.

The registry is the one sink every layer of the stack reports into —
mining phases, ingest timings, query-cache hit rates, storage I/O,
HTTP route latencies — and the one source every exposition reads from:
``GET /metrics`` (Prometheus text format), the richer ``/stats`` JSON
block, the ``repro-convoy stats`` CLI, and the bench journal.

Three instrument kinds, all safe under concurrent writers:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — a settable current value;
* :class:`Histogram` — bucketed latency/size distributions with
  estimated quantiles (p50/p95/p99 via linear interpolation inside the
  bucket holding the quantile).

Instruments may declare *label names*; ``instrument.labels(value, ...)``
returns (and caches) the child time series for one label combination,
exactly like the Prometheus client idiom.

**Hot paths cost nothing extra.**  Counters that already exist as plain
dataclass fields (``CacheStats``, ``IngestStats``, ``IOStats``) are *not*
double-counted on the hot path: their owners register a **collector** —
a callable sampled only at scrape/snapshot time — so reading
``/metrics`` does the aggregation and the hot path keeps its single
attribute increment.  Duplicate samples from several
live instances (e.g. two open LSM stores) are merged: counters sum,
gauges take the max.

**No-op mode.**  A registry built with ``enabled=False`` (or the global
one with ``REPRO_METRICS=0`` in the environment) hands out shared null
instruments and allocates nothing; ``set_enabled(False)`` at runtime
turns every already-created instrument into a cheap flag-check no-op
and empties the expositions.
"""

from __future__ import annotations

import os
import re
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets (seconds): tuned for request/phase latencies
#: from ~0.1 ms to 10 s.  An implicit +Inf bucket always terminates them.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One exposition sample: ``(name, kind, help, labels, value)`` with
#: ``labels`` a tuple of ``(label_name, label_value)`` pairs.  Collectors
#: yield these.
Sample = Tuple[str, str, str, Tuple[Tuple[str, str], ...], float]


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label(value)) for name, value in labels
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


class _Instrument:
    """Shared machinery: naming, labels, the enabled flag."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
    ):
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    @property
    def enabled(self) -> bool:
        """Cheap hot-path check: callers may skip timing work when off."""
        return self._registry._enabled

    def labels(self, *values: Any) -> "_Instrument":
        """The child series for one label-value combination (cached)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(key)
                    self._children[key] = child
        return child

    def _make_child(self, key: Tuple[str, ...]) -> "_Instrument":
        child = type(self)(self._registry, self.name, self.help, ())
        child._labelvalues = key  # type: ignore[attr-defined]
        child.labelnames = self.labelnames
        return child

    def _label_pairs(self) -> Tuple[Tuple[str, str], ...]:
        values = getattr(self, "_labelvalues", ())
        return tuple(zip(self.labelnames, values))

    def _series(self) -> Iterable["_Instrument"]:
        """Every concrete series: self (unlabeled) or the children."""
        if self.labelnames and not getattr(self, "_labelvalues", ()):
            return list(self._children.values())
        return [self]


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry, name, help, labelnames):
        super().__init__(registry, name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry._enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> List[Sample]:
        return [
            (self.name, self.kind, self.help, series._label_pairs(),
             series._value)  # type: ignore[attr-defined]
            for series in self._series()
        ]


class Gauge(_Instrument):
    """A value that can go up and down (or be computed at scrape time)."""

    kind = "gauge"

    def __init__(self, registry, name, help, labelnames, callback=None):
        super().__init__(registry, name, help, labelnames)
        self._value = 0.0
        self._callback: Optional[Callable[[], float]] = callback

    def set(self, value: float) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            try:
                return float(self._callback())
            except Exception:  # noqa: BLE001 — a dead callback reads 0
                return 0.0
        return self._value

    def samples(self) -> List[Sample]:
        return [
            (self.name, self.kind, self.help, series._label_pairs(),
             series.value)
            for series in self._series()
        ]


class Histogram(_Instrument):
    """Bucketed distribution with estimated quantiles.

    Buckets are *upper bounds* in ascending order; an implicit ``+Inf``
    bucket catches the tail.  :meth:`quantile` interpolates linearly
    inside the bucket containing the requested rank, so its error is
    bounded by the bucket width (property-tested against a sorted
    oracle in ``tests/test_obs_metrics.py``).
    """

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0

    def _make_child(self, key):
        child = Histogram(self._registry, self.name, self.help, (),
                          buckets=self.buckets)
        child._labelvalues = key
        child.labelnames = self.labelnames
        return child

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed wall time in seconds."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.buckets[-1]  # +Inf bucket: clamp to last edge
                )
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return self.buckets[-1]

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def samples(self) -> List[Sample]:
        """Prometheus histogram series: cumulative buckets + sum + count."""
        out: List[Sample] = []
        for series in self._series():
            base = series._label_pairs()
            with series._lock:
                counts = list(series._counts)  # type: ignore[attr-defined]
                total_sum = series._sum  # type: ignore[attr-defined]
            cumulative = 0
            for bound, bucket_count in zip(series.buckets, counts):
                cumulative += bucket_count
                out.append((
                    self.name + "_bucket", self.kind, self.help,
                    base + (("le", _format_value(bound)),), float(cumulative),
                ))
            cumulative += counts[-1]
            out.append((
                self.name + "_bucket", self.kind, self.help,
                base + (("le", "+Inf"),), float(cumulative),
            ))
            out.append((self.name + "_sum", self.kind, self.help, base,
                        total_sum))
            out.append((self.name + "_count", self.kind, self.help, base,
                        float(cumulative)))
        return out


class _HistogramTimer:
    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram

    def __enter__(self) -> "_HistogramTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    kind = "null"
    name = ""
    help = ""
    enabled = False
    buckets: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    value = 0.0

    def labels(self, *values):  # noqa: D102
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self):
        return _NULL_TIMER

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def samples(self):
        return []


class _NullTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_TIMER = _NullTimer()
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments plus scrape-time collectors, one namespace.

    Creation is get-or-create: asking twice for the same name returns
    the same instrument (the kind and label names must agree), so module
    handles and late lookups cannot fork a series.
    """

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Instrument]" = {}
        # Scrape-time collectors: (weakref-or-None, fn).  With an owner
        # weakref the collector dies with its owner; without one it
        # lives for the registry's lifetime (e.g. IOStats totals, which
        # must keep counting even after their store is closed).
        self._collectors: List[Tuple[Optional[Any], Callable]] = []
        self._iostats_seen: set = set()

    # -- lifecycle -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Toggle every instrument (existing handles become no-ops)."""
        self._enabled = bool(enabled)

    # -- instrument factories --------------------------------------------------

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (),
              callback: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(
            Gauge, name, help, labelnames, callback=callback
        )
        if callback is not None and isinstance(gauge, Gauge):
            gauge._callback = callback
        return gauge

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        if not self._enabled:
            return NULL_INSTRUMENT
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad label name {label!r} on {name}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._metrics[name] = instrument
            return instrument

    # -- collectors ------------------------------------------------------------

    def register_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """A callable sampled at scrape time; lives as long as the registry."""
        if not self._enabled:
            return
        with self._lock:
            self._collectors.append((None, fn))

    def register_object_collector(
        self, owner: Any, fn: Callable[[Any], Iterable[Sample]]
    ) -> None:
        """Collector bound to ``owner`` by weakref; dies with the owner."""
        if not self._enabled:
            return
        import weakref

        with self._lock:
            self._collectors.append((weakref.ref(owner), fn))

    def register_iostats(self, backend: str, iostats: Any) -> None:
        """Expose one :class:`~repro.storage.interface.IOStats` forever.

        Holds a strong reference so closed stores keep contributing their
        final totals (counters must not go backwards).  Registering the
        same object twice — e.g. a B+tree store handing its stats to its
        pager — is a no-op.
        """
        if not self._enabled or id(iostats) in self._iostats_seen:
            return
        with self._lock:
            if id(iostats) in self._iostats_seen:
                return
            self._iostats_seen.add(id(iostats))
            labels = (("backend", backend),)

            def collect(stats=iostats, labels=labels) -> List[Sample]:
                help_ = "Physical I/O of the storage backends."
                return [
                    ("repro_storage_%s_total" % field, "counter", help_,
                     labels, float(getattr(stats, field)))
                    for field in (
                        "pages_read", "pages_written", "bytes_read",
                        "bytes_written", "seeks", "range_scans",
                        "point_queries", "full_scans", "buffer_hits",
                        "buffer_misses", "compaction_drops",
                    )
                ]

            self._collectors.append((None, collect))

    def _collect(self) -> List[Sample]:
        """All samples: instruments plus live collectors (dead ones pruned)."""
        samples: List[Sample] = []
        with self._lock:
            instruments = list(self._metrics.values())
            collectors = list(self._collectors)
        for instrument in instruments:
            samples.extend(instrument.samples())
        dead = []
        for entry in collectors:
            ref, fn = entry
            if ref is not None:
                owner = ref()
                if owner is None:
                    dead.append(entry)
                    continue
                samples.extend(fn(owner))
            else:
                samples.extend(fn())
        if dead:
            with self._lock:
                self._collectors = [
                    entry for entry in self._collectors if entry not in dead
                ]
        return samples

    def _aggregated(self) -> "Dict[Tuple[str, Tuple], Tuple[str, str, float]]":
        """Samples merged by (name, labels): counters sum, gauges max."""
        merged: Dict[Tuple[str, Tuple], Tuple[str, str, float]] = {}
        for name, kind, help_, labels, value in self._collect():
            key = (name, labels)
            if key in merged:
                _, _, existing = merged[key]
                combined = (
                    max(existing, value) if kind == "gauge"
                    else existing + value
                )
                merged[key] = (kind, help_, combined)
            else:
                merged[key] = (kind, help_, value)
        return merged

    # -- exposition ------------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str, labels: Optional[Dict[str, str]] = None) -> float:
        """Current value of a metric, summed across matching series.

        Includes collector-backed samples, so e.g. the query-cache hit
        counters are readable here even though the hot path never
        touches a registry counter.
        """
        wanted = tuple(sorted((labels or {}).items()))
        total = 0.0
        found = False
        for (sample_name, sample_labels), (_, _, value) in (
            self._aggregated().items()
        ):
            if sample_name != name:
                continue
            if wanted and tuple(sorted(sample_labels)) != wanted:
                continue
            total += value
            found = True
        return total if found else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly view: counters, gauges, histogram summaries."""
        if not self._enabled:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        for (name, labels), (kind, _, value) in self._aggregated().items():
            if kind == "histogram":
                continue  # summarised below, not as raw bucket series
            key = name + _format_labels(labels)
            if kind == "gauge":
                gauges[key] = value
            else:
                counters[key] = value
        histograms: Dict[str, Dict[str, float]] = {}
        with self._lock:
            instruments = list(self._metrics.values())
        for instrument in instruments:
            if not isinstance(instrument, Histogram):
                continue
            for series in instrument._series():
                key = instrument.name + _format_labels(series._label_pairs())
                histograms[key] = {
                    "count": series.count,
                    "sum": series.sum,
                    **series.percentiles(),
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        if not self._enabled:
            return ""
        # Group samples by metric family (histogram _bucket/_sum/_count
        # collapse to one family); HELP/TYPE precede each family once.
        families: Dict[str, List[Tuple[str, Tuple, float]]] = {}
        meta: Dict[str, Tuple[str, str]] = {}
        for (name, labels), (kind, help_, value) in self._aggregated().items():
            family = _histogram_family(name, kind)
            families.setdefault(family, []).append((name, labels, value))
            meta.setdefault(family, (kind, help_))
        lines: List[str] = []
        for family in sorted(families):
            kind, help_ = meta[family]
            if help_:
                lines.append(f"# HELP {family} {help_}")
            lines.append(f"# TYPE {family} {kind}")
            for name, labels, value in sorted(
                families[family], key=_sample_sort_key
            ):
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _histogram_family(name: str, kind: str) -> str:
    if kind != "histogram":
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _sample_sort_key(row: Tuple[str, Tuple, float]) -> Tuple:
    """Keep each series' buckets ascending (by le) before _sum/_count."""
    name, labels, _ = row
    label_map = dict(labels)
    le = label_map.pop("le", None)
    le_key = (
        (0, float("inf")) if le == "+Inf"
        else (0, float(le)) if le is not None
        else (1, 0.0)
    )
    return (tuple(sorted(label_map.items())), name, le_key)
