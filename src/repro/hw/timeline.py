"""Execution reports: per-op latency breakdowns and aggregation.

Every simulated kernel execution produces an :class:`ExecReport`; a model
forward pass produces a :class:`Timeline` of them.  The benchmark harness
aggregates timelines into the latency/memory rows the paper's figures plot,
including the "PyTorch-S Convert" / "PIT Convert" breakdown bars (the stacked
conversion-overhead components of Figures 8-15 and 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional


@dataclass(frozen=True, init=False)
class ExecReport:
    """Result of one simulated kernel (or fused op) execution.

    Frozen: the engine replays one priced layer's reports for every
    structurally identical layer, so a report may sit in a timeline many
    times.  Derive an edited copy with :func:`dataclasses.replace`.
    """

    op: str
    latency_us: float
    #: Portion of ``latency_us`` spent on sparse-index construction / format
    #: conversion (the paper's "Convert" bars).  Always <= latency_us.
    convert_us: float = 0.0
    #: Fraction of computed output elements that were zero padding/waste.
    wasted_fraction: float = 0.0
    #: Free-form breakdown for debugging and ablations.
    detail: dict = field(default_factory=dict)

    # Written by hand: pricing builds one report per priced op, and the
    # generated frozen __init__ pays an object.__setattr__ per field.
    def __init__(self, op: str, latency_us: float, convert_us: float = 0.0,
                 wasted_fraction: float = 0.0,
                 detail: Optional[dict] = None) -> None:
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        if convert_us < 0 or convert_us > latency_us + 1e-9:
            raise ValueError(
                f"convert_us ({convert_us}) must be within "
                f"[0, latency_us={latency_us}]"
            )
        fields = self.__dict__
        fields["op"] = op
        fields["latency_us"] = latency_us
        fields["convert_us"] = convert_us
        fields["wasted_fraction"] = wasted_fraction
        fields["detail"] = {} if detail is None else detail


@dataclass
class Timeline:
    """An ordered sequence of :class:`ExecReport` for one run."""

    reports: list = field(default_factory=list)

    def add(self, report: ExecReport) -> ExecReport:
        self.reports.append(report)
        return report

    def record(self, op: str, latency_us: float, **kwargs) -> ExecReport:
        """Convenience: build and append a report."""
        report = ExecReport(op, latency_us, **kwargs)
        self.reports.append(report)
        return report

    @property
    def total_us(self) -> float:
        return sum(map(attrgetter("latency_us"), self.reports))

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3

    @property
    def convert_us(self) -> float:
        return sum(map(attrgetter("convert_us"), self.reports))

    @property
    def convert_ms(self) -> float:
        return self.convert_us / 1e3

    def by_op(self) -> dict[str, float]:
        """Total latency per op name (microseconds)."""
        out: dict[str, float] = {}
        for r in self.reports:
            out[r.op] = out.get(r.op, 0.0) + r.latency_us
        return out

    def extend(self, other: "Timeline") -> None:
        self.reports.extend(other.reports)

    def scaled(self, factor: float) -> "Timeline":
        """A copy with every latency multiplied by ``factor``.

        Used to model backward passes as a multiple of forward compute when
        the exact backward op stream is not materialized.
        """
        out = Timeline()
        for r in self.reports:
            out.add(
                ExecReport(
                    op=r.op,
                    latency_us=r.latency_us * factor,
                    convert_us=r.convert_us * factor,
                    wasted_fraction=r.wasted_fraction,
                    detail=dict(r.detail),
                )
            )
        return out
