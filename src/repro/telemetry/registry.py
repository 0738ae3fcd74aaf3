"""The unified metric registry and its snapshot algebra.

:class:`MetricRegistry` is :class:`repro.service.metrics.MetricsRegistry`
— one class under both import paths: the service's instruments plus
*collectors* refreshed before every export and a
:meth:`~repro.service.metrics.MetricsRegistry.validate` grammar and
collision check.

The module also provides the snapshot algebra behind
``repro telemetry dump|diff``: :func:`registry_from_snapshot`
reconstructs a registry from an exported ``metrics.json`` document and
:func:`diff_snapshots` reports what changed between two exports.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..service.metrics import (
    COLLECTOR_ERRORS_METRIC,
    MetricError,
    MetricsRegistry,
)

#: The unified registry (the telemetry plane's name for it).
MetricRegistry = MetricsRegistry


def _parse_bound(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def load_snapshot(
    registry: MetricsRegistry, document: Dict[str, Any]
) -> None:
    """Load an exported ``as_dict`` document into ``registry``."""
    for name, entry in document.items():
        if not isinstance(entry, dict):
            raise MetricError(f"snapshot entry {name!r} is not an object")
        kind = entry.get("kind")
        help_text = entry.get("help", "")
        if kind == "counter":
            registry.counter(name, help_text).set_to(
                float(entry.get("value", 0.0))
            )
        elif kind == "gauge":
            registry.gauge(name, help_text).set(
                float(entry.get("value", 0.0))
            )
        elif kind == "histogram":
            buckets = entry.get("buckets", {})
            # A JSON round-trip (sort_keys) orders the bound keys
            # lexically; re-sort numerically before reconstructing.
            pairs = sorted(
                ((_parse_bound(key), int(value))
                 for key, value in buckets.items()),
            )
            histogram = registry.histogram(
                name, help_text, [bound for bound, _ in pairs]
            )
            histogram.restore(
                [count for _, count in pairs],
                float(entry.get("sum", 0.0)),
                int(entry.get("count", 0)),
            )
        else:
            raise MetricError(
                f"snapshot entry {name!r} has unknown kind {kind!r}"
            )


def registry_from_snapshot(document: Dict[str, Any]) -> MetricRegistry:
    """Reconstruct a registry from an exported ``metrics.json`` doc."""
    registry = MetricRegistry()
    load_snapshot(registry, document)
    return registry


def _scalar_view(entry: Optional[Dict[str, Any]]) -> Any:
    if entry is None:
        return None
    if entry.get("kind") == "histogram":
        return {"count": entry.get("count"), "sum": entry.get("sum")}
    return entry.get("value")


def diff_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """What changed between two ``as_dict`` documents.

    Maps each added, removed, or changed metric name to
    ``{"kind", "change", "before", "after"[, "delta"]}``; unchanged
    metrics are omitted.  Histograms compare by ``(count, sum)``.
    """
    changes: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(before) | set(after)):
        entry_a = before.get(name)
        entry_b = after.get(name)
        view_a = _scalar_view(entry_a)
        view_b = _scalar_view(entry_b)
        if entry_a is not None and entry_b is not None and view_a == view_b:
            continue
        source = entry_b if entry_b is not None else entry_a
        change = {
            "kind": source.get("kind") if source else None,
            "change": (
                "added"
                if entry_a is None
                else "removed" if entry_b is None else "changed"
            ),
            "before": view_a,
            "after": view_b,
        }
        if isinstance(view_a, (int, float)) and isinstance(
            view_b, (int, float)
        ):
            change["delta"] = view_b - view_a
        changes[name] = change
    return changes


__all__ = [
    "COLLECTOR_ERRORS_METRIC",
    "MetricRegistry",
    "diff_snapshots",
    "load_snapshot",
    "registry_from_snapshot",
]
