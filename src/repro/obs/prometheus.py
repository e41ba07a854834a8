"""Prometheus text exposition (version 0.0.4) of a metrics snapshot.

Naming conventions (documented in docs/OBSERVABILITY.md):

* every series carries the ``repro_`` namespace prefix;
* dotted tracer names map to underscores (``daemon.queue_depth`` →
  ``repro_daemon_queue_depth``);
* counters get the ``_total`` suffix (``daemon.requests`` →
  ``repro_daemon_requests_total``);
* gauges keep their sanitized name;
* histograms record seconds and expose the conventional
  ``_seconds_bucket{le="..."}`` cumulative series plus
  ``_seconds_sum`` / ``_seconds_count``;
* the snapshot's ``"gc"`` section becomes three counter families
  labelled by ``generation``: ``repro_gc_collections_total``,
  ``repro_gc_pause_seconds_total`` and
  ``repro_gc_collected_objects_total``.

The renderer emits ``# HELP`` / ``# TYPE`` headers per family, and
:func:`parse_exposition` is a strict well-formedness checker used by
the CI smoke step and the endpoint tests — no Prometheus client
library required (and none is installed).
"""

from __future__ import annotations

import re

__all__ = ["parse_exposition", "render_prometheus", "sanitize"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: Exposition line shapes accepted by the validator.
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)( [0-9]+)?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize(name: str, namespace: str = "repro") -> str:
    """A metric name safe for the exposition format."""
    cleaned = _BAD_CHARS.sub("_", name).strip("_")
    candidate = f"{namespace}_{cleaned}" if namespace else cleaned
    if not _NAME_OK.match(candidate):
        candidate = f"{namespace}_metric"
    return candidate


#: (snapshot field, family, help) of the collector series.
_GC_FAMILIES = (
    ("collections", "gc_collections_total", "Cyclic collector runs."),
    ("pause_s", "gc_pause_seconds_total", "Time spent collecting."),
    ("collected", "gc_collected_objects_total", "Objects the collector freed."),
)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_bound(bound: float) -> str:
    text = repr(float(bound))
    return text


def render_prometheus(
    snapshot: dict,
    namespace: str = "repro",
    extra_gauges: dict | None = None,
) -> str:
    """Render a (possibly merged) tracer snapshot as exposition text.

    ``extra_gauges`` lets callers add synthetic series (session
    counts, worker counts) that live outside the tracer.  Counter
    names that collide after sanitization are summed — the format
    forbids duplicate samples.
    """
    lines: list[str] = []

    counters: dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        series = sanitize(name, namespace) + "_total"
        counters[series] = counters.get(series, 0) + value
    for series in sorted(counters):
        lines.append(f"# HELP {series} Cumulative event count.")
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_format_value(counters[series])}")

    gc_section = snapshot.get("gc", {})
    for field, family, help_text in _GC_FAMILIES if gc_section else ():
        series = f"{namespace}_{family}"
        lines.append(f"# HELP {series} {help_text}")
        lines.append(f"# TYPE {series} counter")
        for generation in sorted(gc_section):
            label = generation.removeprefix("gen")
            value = _format_value(gc_section[generation].get(field, 0))
            lines.append(f'{series}{{generation="{label}"}} {value}')

    gauges: dict[str, float] = {}
    for name, value in snapshot.get("gauges", {}).items():
        gauges[sanitize(name, namespace)] = value
    for name, value in (extra_gauges or {}).items():
        gauges[sanitize(name, namespace)] = value
    for series in sorted(gauges):
        lines.append(f"# HELP {series} Last-observed value.")
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_format_value(gauges[series])}")

    for name in sorted(snapshot.get("histograms", {})):
        entry = snapshot["histograms"][name]
        series = sanitize(name, namespace) + "_seconds"
        lines.append(
            f"# HELP {series} Latency distribution in seconds."
        )
        lines.append(f"# TYPE {series} histogram")
        bounds = entry.get("bucket_bounds_s", [])
        buckets = entry.get("buckets", [])
        cumulative = 0
        for bound, bucket in zip(bounds, buckets):
            cumulative += bucket
            lines.append(
                f'{series}_bucket{{le="{_format_bound(bound)}"}} '
                f"{cumulative}"
            )
        total = entry.get("count", 0)
        lines.append(f'{series}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{series}_sum {_format_value(entry.get('sum_s', 0.0))}")
        lines.append(f"{series}_count {total}")

    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict:
    """Strictly parse exposition text; raises ``ValueError`` on any
    malformed line.  Returns ``{family: {"type": ..., "samples":
    [(name, labels, value)]}}`` for assertions over series presence.

    Checks the invariants scrapers rely on: every sample belongs to a
    ``# TYPE``-declared family, histogram ``le`` buckets are cumulative
    and end with ``+Inf``, ``_count`` equals the ``+Inf`` bucket, and
    no duplicate (name, labels) sample appears.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    seen: set[tuple[str, str]] = set()
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                raise ValueError(f"line {line_no}: bad TYPE line: {line!r}")
            current = parts[2]
            if current in families:
                raise ValueError(
                    f"line {line_no}: duplicate TYPE for {current}"
                )
            families[current] = {"type": parts[3], "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample: {line!r}")
        name = match.group("name")
        labels_text = match.group("labels") or ""
        labels = dict(_LABEL.findall(labels_text[1:-1])) if labels_text else {}
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {line_no}: bad value in {line!r}"
            ) from exc
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base is not None and base in families:
                family = base
                break
        if family not in families:
            raise ValueError(
                f"line {line_no}: sample {name!r} outside any TYPE family"
            )
        sample_key = (name, labels_text)
        if sample_key in seen:
            raise ValueError(f"line {line_no}: duplicate sample {name!r}")
        seen.add(sample_key)
        families[family]["samples"].append((name, labels, value))

    for family, data in families.items():
        if data["type"] != "histogram":
            if not data["samples"]:
                raise ValueError(f"family {family}: TYPE with no samples")
            continue
        buckets = [
            (labels.get("le"), value)
            for name, labels, value in data["samples"]
            if name == f"{family}_bucket"
        ]
        if not buckets or buckets[-1][0] != "+Inf":
            raise ValueError(
                f"family {family}: histogram must end with an +Inf bucket"
            )
        values = [value for _, value in buckets]
        if values != sorted(values):
            raise ValueError(
                f"family {family}: histogram buckets must be cumulative"
            )
        counts = [
            value
            for name, _, value in data["samples"]
            if name == f"{family}_count"
        ]
        if len(counts) != 1 or counts[0] != values[-1]:
            raise ValueError(
                f"family {family}: _count must equal the +Inf bucket"
            )
    return families
