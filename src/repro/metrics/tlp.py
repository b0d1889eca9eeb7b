"""Thread-Level Parallelism — Equation 1 of the paper.

    TLP = (sum_{i=1..n} c_i * i) / (1 - c0)

where ``c_i`` is the fraction of wall time during which exactly ``i``
logical CPUs are running threads of the application and ``c0`` is the
idle fraction.  Idle time is factored out, so TLP measures *how wide*
the application runs while it runs at all.

The paper measures **application-level** TLP (filtering the trace to
the processes of the application under test), unlike the system-wide
TLP of the 2000/2010 prior work — we do the same by passing
``processes=...``.
"""

from dataclasses import dataclass, field

from repro.metrics.kernels import fused_sweep_arrays


@dataclass
class TlpResult:
    """A TLP measurement with its underlying concurrency breakdown."""

    tlp: float
    #: ``fractions[i]`` is c_i: fraction of wall time with exactly i
    #: logical CPUs running application threads (index 0 = idle).
    fractions: list = field(default_factory=list)
    max_instantaneous: int = 0
    window_us: int = 0

    @property
    def idle_fraction(self):
        return self.fractions[0] if self.fractions else 1.0


def tlp_from_fractions(fractions):
    """Apply Equation 1 to a list ``[c0, c1, ..., cn]``.

    Returns 0.0 for a fully idle window (the paper's applications are
    never fully idle, but synthetic traces can be).
    """
    if not fractions:
        return 0.0
    total = sum(fractions)
    if total <= 0:
        return 0.0
    c0 = fractions[0] / total
    if c0 >= 1.0:
        return 0.0
    weighted = sum(i * c / total for i, c in enumerate(fractions) if i > 0)
    # Clamp against float round-off: TLP can never exceed the number
    # of concurrency levels.
    return min(weighted / (1.0 - c0), float(len(fractions) - 1))


def tlp_result_from_profile(profile, peak, n_logical, total):
    """Build a :class:`TlpResult` from a concurrency profile.

    Shared by the post-hoc path (:func:`measure_tlp`, over a fused
    sweep of the WPA table) and the streaming path
    (:class:`~repro.metrics.online.OnlineMetricsEngine`), so both
    produce bit-identical fractions from the same integer profile.
    """
    if n_logical < 1:
        raise ValueError("n_logical must be >= 1")
    if total <= 0:
        raise ValueError("empty measurement window")
    fractions = [profile.get(level, 0) / total for level in range(n_logical + 1)]
    overflow = sum(length for level, length in profile.items()
                   if level > n_logical)
    if overflow:
        # Defensive: more overlapping intervals than logical CPUs would
        # mean a malformed trace; fold the excess into the top level.
        fractions[n_logical] += overflow / total
    return TlpResult(
        tlp=tlp_from_fractions(fractions),
        fractions=fractions,
        max_instantaneous=min(peak, n_logical),
        window_us=total,
    )


def measure_tlp(cpu_table, n_logical, processes=None, window=None):
    """Compute :class:`TlpResult` from a CPU Usage (Precise) table.

    ``n_logical`` is the number of logical CPUs in the machine (sizes
    the c_i vector).  ``window`` defaults to the whole trace.

    Raises ``ValueError("empty measurement window")`` for a zero-width
    or inverted window (including the whole-trace window of a trace
    whose session stopped the instant it started): Eq. 1 divides by
    the window length, so there is no well-defined TLP to return.
    """
    if n_logical < 1:
        raise ValueError("n_logical must be >= 1")
    start, stop = window or (cpu_table.trace_start, cpu_table.trace_stop)
    if stop <= start:
        raise ValueError("empty measurement window")
    # One fused traversal of the table's memoized sorted event buffers
    # computes the profile and the peak together — windowed callers
    # (instantaneous TLP) never re-extract or re-sort rows.
    times, deltas = cpu_table.busy_event_arrays(processes)
    sweep = fused_sweep_arrays(times, deltas, start, stop)
    return tlp_result_from_profile(sweep.profile, sweep.max_concurrency,
                                   n_logical, stop - start)
