"""Shared helpers for the end-to-end figure benchmarks (Figures 8-14, 19)
and the trajectory writer of the script-run gates."""

from __future__ import annotations

import json
from pathlib import Path

from repro.runtime import run_lineup


def append_trajectory(path, record: dict) -> int:
    """Append one run record to the JSON-list trajectory at ``path``.

    Returns the number of runs the file now holds.  An unreadable file
    starts a fresh list and a lone non-list record is kept as its first
    entry: a corrupt trajectory never blocks a gate.
    """
    path = Path(path)
    runs = []
    if path.exists():
        try:
            runs = json.loads(path.read_text())
        except (ValueError, OSError):
            runs = []
    if not isinstance(runs, list):
        runs = [runs]
    runs.append(record)
    path.write_text(json.dumps(runs, indent=2) + "\n")
    return len(runs)


def cell(report) -> str:
    """One figure cell: latency(convert)/memory or the failure marker."""
    if report.oom:
        return "OOM"
    if report.unsupported:
        return "n/a"
    return (
        f"{report.latency_ms:.1f}ms"
        f"({report.convert_ms:.1f}c)/{report.peak_mem_gib:.1f}G"
    )


def lineup_rows(configs, names, spec, dtype, *, mode="inference", devices=1,
                plan_cache=None):
    """Run each (label, workload) against the lineup; returns printable rows
    and {label: {backend: speedup-over-PIT}}.

    ``plan_cache`` is threaded to :func:`run_lineup`, so a figure sweeping
    several model sizes resolves shared plan traffic once across the whole
    sweep instead of once per configuration."""
    rows = []
    speedups = {}
    for label, workload in configs:
        reports = run_lineup(
            workload, names, spec, dtype, mode=mode, devices=devices,
            plan_cache=plan_cache,
        )
        by_name = {r.backend: r for r in reports}
        pit = by_name["PIT"]
        rows.append([label] + [cell(by_name[n]) for n in names])
        speedups[label] = {
            n: by_name[n].latency_ms / pit.latency_ms
            for n in names
            if n != "PIT" and by_name[n].ok and pit.ok
        }
    return rows, speedups


def speedup_summary(speedups: dict) -> str:
    """Min~max speedup per backend across all configurations."""
    agg: dict = {}
    for table in speedups.values():
        for name, value in table.items():
            agg.setdefault(name, []).append(value)
    parts = [
        f"PIT vs {name}: {min(vals):.1f}x~{max(vals):.1f}x"
        for name, vals in agg.items()
    ]
    return "; ".join(parts)
