"""Machine-readable run reports: spans + metrics + health + profile +
resources.

The same schema (``repro.obs/v1.3``) is written by the CLI's ``--report``
flag and by the benchmark harness, so the ``BENCH_*.json`` trajectory and
ad-hoc runs can be diffed with the same tooling (``python -m repro obs
diff``).  Loading accepts ``repro.obs/v1.3`` only; anything else raises
:class:`~repro.errors.ObsError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.errors import ObsError

SCHEMA = "repro.obs/v1.3"


class RunReport:
    """A frozen observation: metadata, span forest, metrics, health,
    per-stage resource records, and (under ``--profile``) per-stage
    hotspot tables."""

    def __init__(self, meta: Dict[str, Any], spans: List[Dict[str, Any]],
                 metrics: Dict[str, Any],
                 health: Optional[List[Dict[str, Any]]] = None,
                 profile: Optional[Dict[str, List[Dict[str, Any]]]] = None,
                 resources: Optional[List[Dict[str, Any]]] = None):
        self.meta = meta
        self.spans = spans
        self.metrics = metrics
        self.health = list(health or [])
        self.profile = dict(profile or {})
        self.resources = list(resources or [])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_observer(cls, observer: Any,
                      meta: Optional[Dict[str, Any]] = None) -> "RunReport":
        return cls(
            meta=dict(meta or {}),
            spans=observer.tracer.to_list(),
            metrics=observer.metrics.to_dict(),
            health=observer.health.to_list(),
            profile=observer.profiles.to_dict(),
            resources=observer.resources.to_list(),
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        if not isinstance(data, dict):
            raise ObsError(
                f"a run report must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema is None:
            raise ObsError(
                "not a run report: missing 'schema' field "
                f"(expected {SCHEMA})"
            )
        if schema != SCHEMA:
            raise ObsError(
                f"unsupported report schema {schema!r} (expected {SCHEMA})"
            )
        return cls(meta=data.get("meta", {}), spans=data.get("spans", []),
                   metrics=data.get("metrics", {}),
                   health=data.get("health", []),
                   profile=data.get("profile", {}),
                   resources=data.get("resources", []))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObsError(f"run report is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "spans": self.spans,
            "metrics": self.metrics,
            "health": self.health,
            "profile": self.profile,
            "resources": self.resources,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the report, creating parent directories as needed
        (matching how the IDLZ output stage treats ``-o``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def span_names(self) -> Set[str]:
        names: Set[str] = set()

        def walk(span: Dict[str, Any]) -> None:
            names.add(span["name"])
            for child in span.get("children", []):
                walk(child)

        for root in self.spans:
            walk(root)
        return names

    def find_spans(self, name: str) -> List[Dict[str, Any]]:
        """All spans with the given name, depth-first order."""
        found: List[Dict[str, Any]] = []

        def walk(span: Dict[str, Any]) -> None:
            if span["name"] == name:
                found.append(span)
            for child in span.get("children", []):
                walk(child)

        for root in self.spans:
            walk(root)
        return found

    def counters(self) -> Dict[str, int]:
        return dict(self.metrics.get("counters", {}))

    def gauges(self) -> Dict[str, Any]:
        return dict(self.metrics.get("gauges", {}))

    def health_entries(self, name: Optional[str] = None
                       ) -> List[Dict[str, Any]]:
        """Health snapshots in publication order, optionally by name."""
        if name is None:
            return list(self.health)
        return [e for e in self.health if e.get("name") == name]

    def health_names(self) -> List[str]:
        """Distinct snapshot names in first-publication order."""
        seen: List[str] = []
        for entry in self.health:
            name = entry.get("name", "?")
            if name not in seen:
                seen.append(name)
        return seen

    def resource_entries(self, stage: Optional[str] = None
                         ) -> List[Dict[str, Any]]:
        """Per-stage resource records, optionally filtered by stage."""
        if stage is None:
            return list(self.resources)
        return [e for e in self.resources if e.get("stage") == stage]

    def peak_rss_kb(self) -> Optional[int]:
        """The run's high-water RSS (``meta.peak_rss_kb``), if recorded."""
        peak = self.meta.get("peak_rss_kb")
        return int(peak) if isinstance(peak, (int, float)) else None

    # ------------------------------------------------------------------
    # Rendering (the CLI's --trace output)
    # ------------------------------------------------------------------
    def render_tree(self) -> str:
        """A human-readable per-stage timing tree."""
        lines: List[str] = ["stage timings (wall / cpu)"]

        def fmt(seconds: Optional[float]) -> str:
            if seconds is None:
                return "   open  "
            return f"{seconds * 1000.0:8.2f}ms"

        def walk(span: Dict[str, Any], depth: int) -> None:
            indent = "  " * depth
            attrs = span.get("attrs") or {}
            extra = ""
            if attrs:
                pairs = ", ".join(f"{k}={v}" for k, v in attrs.items())
                extra = f"  [{pairs}]"
            lines.append(
                f"  {indent}{span['name']:<{max(1, 34 - 2 * depth)}s}"
                f" {fmt(span.get('wall_s'))} / {fmt(span.get('cpu_s'))}"
                f"{extra}"
            )
            for child in span.get("children", []):
                walk(child, depth + 1)

        for root in self.spans:
            walk(root, 0)
        counters = self.metrics.get("counters", {})
        gauges = self.metrics.get("gauges", {})
        if counters or gauges:
            lines.append("metrics")
            for name, value in counters.items():
                lines.append(f"  {name:<34s} {value}")
            for name, value in gauges.items():
                lines.append(f"  {name:<34s} {value}")
        return "\n".join(lines)

    def render_profile(self, top_n: int = 5) -> str:
        """The per-stage hotspot tables (the CLI's ``--profile`` output)."""
        from repro.obs.profile import render_profile

        return render_profile(self.profile, top_n=top_n)

    def render_resources(self) -> str:
        """The per-stage resource table (``obs render``)."""
        from repro.obs.resources import render_resources

        return render_resources(self.resources)

    def render_health_table(self) -> str:
        """The numerical-health table (the CLI's ``--health`` output).

        One row per snapshot, in publication order; repeated names (the
        IDLZ stage sequence, one entry per problem) read as a
        progression, so the reformation pass's effect is visible as the
        min-angle/aspect rows improving from ``idlz.shape`` to
        ``idlz.reform``.
        """
        if not self.health:
            return "health: no snapshots recorded"
        lines: List[str] = ["numerical health"]
        for entry in self.health:
            name = entry.get("name", "?")
            kind = entry.get("kind", "generic")
            values = entry.get("values", {})
            pairs = "  ".join(
                f"{key}={_fmt_health_value(value)}"
                for key, value in values.items()
            )
            lines.append(f"  {name:<22s} [{kind:<6s}] {pairs}")
        return "\n".join(lines)


def _fmt_health_value(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value != 0.0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
        return f"{value:.3e}"
    return f"{value:.4g}"
