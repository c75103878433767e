"""A process-wide metrics registry: counters, gauges and histograms.

Instruments are created lazily by name through a :class:`MetricsRegistry`
(``registry.counter("server.dispatch_calls")``) and keep one series per
label combination, keyed on the sorted ``(key, value)`` tuple so exports
are deterministic regardless of recording order.  Values are stored as
given (ints stay ints), which lets report renderers that used plain
``collections.Counter`` accounting move onto the registry without their
output changing by a byte.

The disabled path mirrors the tracer's: :data:`NULL_REGISTRY` hands out
shared null instruments whose recording methods do nothing, so a library
default of "no metrics injected" costs one method call and no allocation
growth per event.
"""

from __future__ import annotations

import math

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramSeries",
    "HistogramMetric",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
]

LabelKey = tuple  # tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common shape of every registry instrument."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict = {}

    def labelsets(self) -> list[dict]:
        """Sorted list of label dicts with at least one recording."""
        return [dict(key) for key in sorted(self._series)]

    def series(self) -> list[tuple[dict, object]]:
        """Sorted ``(labels, value)`` pairs for export."""
        return [(dict(key), self._value_of(key))
                for key in sorted(self._series)]

    def _value_of(self, key: LabelKey):
        return self._series[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class CounterMetric(Instrument):
    """Monotonic counter, one value per label combination."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels) -> None:
        """Add ``amount`` (default 1) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(amount={amount!r})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels):
        """Current value of one labeled series (0 when never incremented)."""
        return self._series.get(_label_key(labels), 0)

    def total(self):
        """Sum across all label combinations."""
        return sum(self._series.values())


class GaugeMetric(Instrument):
    """Point-in-time value, one per label combination; settable."""

    kind = "gauge"

    def set(self, value, **labels) -> None:
        """Set the labeled series to ``value`` (type preserved as given)."""
        self._series[_label_key(labels)] = value

    def value(self, default=0, **labels):
        """Current value of one labeled series."""
        return self._series.get(_label_key(labels), default)


class HistogramSeries:
    """Raw-sample distribution with exact nearest-rank percentiles.

    Samples are kept raw (simulated runs record thousands, not millions)
    so ``p50``/``p99`` are exact, not bucket-interpolated.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        if value < 0:
            raise ValueError(f"negative latency {value!r}")
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        """Mean sample (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100] (0.0 when empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} out of [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(len(ordered) * p / 100))
        return ordered[rank - 1]


class HistogramMetric(Instrument):
    """Distribution instrument: one :class:`HistogramSeries` per labelset."""

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the labeled series."""
        self.series_for(**labels).record(value)

    def series_for(self, **labels) -> HistogramSeries:
        """The labeled series, created empty on first use."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = HistogramSeries()
        return series

    def _value_of(self, key: LabelKey):
        return self._series[key]


class MetricsRegistry:
    """Named instruments, created on first use and listed deterministically.

    Asking for an existing name returns the same instrument; asking for it
    as a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get(self, cls, name: str, help: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, help)
        elif type(instrument) is not cls:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{instrument.kind}, not {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "") -> CounterMetric:
        return self._get(CounterMetric, name, help)

    def gauge(self, name: str, help: str = "") -> GaugeMetric:
        return self._get(GaugeMetric, name, help)

    def histogram(self, name: str, help: str = "") -> HistogramMetric:
        return self._get(HistogramMetric, name, help)

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """JSON-ready state: name -> {kind, help, series}.

        Histogram series export count/mean/p50/p99 rather than raw samples
        so snapshots stay small and comparable.
        """
        out: dict = {}
        for instrument in self.instruments():
            rows = []
            for labels, value in instrument.series():
                if isinstance(value, HistogramSeries):
                    value = {"count": value.count, "mean": value.mean,
                             "p50": value.percentile(50),
                             "p99": value.percentile(99)}
                rows.append({"labels": labels, "value": value})
            out[instrument.name] = {"kind": instrument.kind,
                                    "help": instrument.help,
                                    "series": rows}
        return out


class _NullInstrument:
    """Accepts every recording call, stores nothing, exports nothing."""

    __slots__ = ()

    name = ""
    help = ""
    kind = "null"

    def inc(self, amount: int = 1, **labels) -> None:
        return None

    def set(self, value, **labels) -> None:
        return None

    def observe(self, value: float, **labels) -> None:
        return None

    def value(self, default=0, **labels):
        return default

    def total(self):
        return 0

    def labelsets(self) -> list:
        return []

    def series(self) -> list:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """No-op registry: every instrument is the shared null instrument."""

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {}


#: The process-wide no-op registry used wherever metrics are not injected.
NULL_REGISTRY = NullMetricsRegistry()
