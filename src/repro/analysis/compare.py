"""Longitudinal comparison of stored suite results.

The paper is an 18-year perspective: the same lineages measured on
successive machines.  This module continues that practice for users of
the library — compare two stored suites (different machine configs,
different model versions, different years) app by app, the way Figs.
2-3 compare eras.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AppDelta:
    """Per-application change between two suites."""

    app_name: str
    tlp_before: float
    tlp_after: float
    gpu_before: float
    gpu_after: float

    @property
    def tlp_delta(self):
        return self.tlp_after - self.tlp_before

    @property
    def gpu_delta(self):
        return self.gpu_after - self.gpu_before


@dataclass
class SuiteComparison:
    """All per-app deltas plus the apps unique to either side."""

    deltas: list
    only_before: list
    only_after: list

    def improved(self, threshold=0.0):
        """Apps whose TLP rose by more than ``threshold``."""
        return [d.app_name for d in self.deltas if d.tlp_delta > threshold]

    def regressed(self, threshold=0.0):
        """Apps whose TLP fell by more than ``threshold``."""
        return [d.app_name for d in self.deltas if d.tlp_delta < -threshold]


def compare_suites(before, after):
    """Compare two SuiteResult-like objects (live or loaded from JSON).

    Results only need ``.results`` mapping names to objects exposing
    ``tlp.mean`` and ``gpu_util.mean`` — both live ``AppResult`` and
    stored ``StoredAppResult`` qualify.
    """
    common = sorted(set(before.results) & set(after.results))
    deltas = [
        AppDelta(
            app_name=name,
            tlp_before=before.results[name].tlp.mean,
            tlp_after=after.results[name].tlp.mean,
            gpu_before=before.results[name].gpu_util.mean,
            gpu_after=after.results[name].gpu_util.mean,
        )
        for name in common
    ]
    return SuiteComparison(
        deltas=deltas,
        only_before=sorted(set(before.results) - set(after.results)),
        only_after=sorted(set(after.results) - set(before.results)),
    )


def render_comparison(comparison, title="Suite comparison"):
    """Text table of the comparison."""
    from repro.reporting import format_table

    rows = [
        (d.app_name,
         f"{d.tlp_before:5.2f}", f"{d.tlp_after:5.2f}",
         f"{d.tlp_delta:+5.2f}",
         f"{d.gpu_before:6.2f}", f"{d.gpu_after:6.2f}",
         f"{d.gpu_delta:+6.2f}")
        for d in comparison.deltas
    ]
    text = format_table(
        ("App", "TLP was", "TLP now", "ΔTLP", "GPU was", "GPU now", "ΔGPU"),
        rows, title=title)
    extras = []
    if comparison.only_before:
        extras.append("only in baseline: " + ", ".join(comparison.only_before))
    if comparison.only_after:
        extras.append("only in new run: " + ", ".join(comparison.only_after))
    return text + ("\n" + "\n".join(extras) if extras else "")
