"""Additional trace analyses beyond the two WPA tables the paper uses.

* :func:`timeline_by_process` — per-process CPU time and share of the
  machine (WPA's "CPU Usage ... by Process" roll-up).
* :class:`SampledProfile` — a CPU Usage (Sampled) substitute: sample
  the precise timeline at a fixed rate and count hits per process,
  useful to confirm the sampled and precise views agree.
* :class:`WaitAnalysis` — scheduler-latency statistics from the
  Ready-Time column: how long threads sat runnable before being
  dispatched (the latency behind VR frame misses at low core counts).
"""

from dataclasses import dataclass

from repro.metrics.stats import summarize


def timeline_by_process(cpu_table, n_logical):
    """Per-process busy µs and share of total machine capacity.

    Returns ``{process: (busy_us, share)}`` where share is busy time
    divided by ``window * n_logical``.
    """
    window = cpu_table.trace_stop - cpu_table.trace_start
    if window <= 0:
        raise ValueError("empty trace window")
    busy = {}
    for row in cpu_table.rows:
        busy[row[0]] = busy.get(row[0], 0) + (row[7] - row[6])
    capacity = window * n_logical
    return {process: (total, total / capacity)
            for process, total in busy.items()}


@dataclass
class SampledProfile:
    """Counted samples per process at a fixed sampling interval."""

    interval_us: int
    samples: dict          # process -> hit count
    total_samples: int     # sample points x logical CPUs

    def share(self, process):
        """Estimated machine share of ``process`` from the samples."""
        if self.total_samples == 0:
            return 0.0
        return self.samples.get(process, 0) / self.total_samples

    @classmethod
    def from_table(cls, cpu_table, n_logical, interval_us=1000):
        """Sample the precise timeline every ``interval_us``.

        Mirrors ETW's profile interrupt (default 1 ms): at each sample
        point, each logical CPU attributes one sample to whatever was
        running on it.
        """
        if interval_us <= 0:
            raise ValueError("interval must be positive")
        start, stop = cpu_table.trace_start, cpu_table.trace_stop
        points = range(start, stop, interval_us)
        n_points = len(points)
        # Build per-cpu interval lists once, then walk them in order.
        by_cpu = {}
        for row in cpu_table.rows:
            by_cpu.setdefault(row[4], []).append((row[6], row[7], row[0]))
        samples = {}
        for intervals in by_cpu.values():
            intervals.sort()
            index = 0
            for point in points:
                while index < len(intervals) and intervals[index][1] <= point:
                    index += 1
                if index < len(intervals):
                    begin, _end, process = intervals[index]
                    if begin <= point:
                        samples[process] = samples.get(process, 0) + 1
        return cls(interval_us=interval_us, samples=samples,
                   total_samples=n_points * n_logical)


@dataclass
class WaitAnalysis:
    """Scheduler-latency (ready -> running) statistics."""

    per_process: dict      # process -> Summary of wait times (µs)

    def summary(self, process):
        return self.per_process[process]

    @classmethod
    def from_table(cls, cpu_table, processes=None):
        waits = {}
        for row in cpu_table.rows:
            process = row[0]
            if processes is not None and process not in processes:
                continue
            waits.setdefault(process, []).append(row[6] - row[5])
        return cls(per_process={process: summarize(values)
                                for process, values in waits.items()})

    def worst_process(self):
        """Process with the highest mean scheduler latency."""
        if not self.per_process:
            raise ValueError("no processes analysed")
        return max(self.per_process.items(),
                   key=lambda item: item[1].mean)[0]


def gpu_by_process(gpu_table):
    """Per-process GPU busy µs and utilization share of the window.

    Mirrors WPA's per-process roll-up of the GPU Utilization table;
    summed packet running time, like the paper's metric.
    """
    window = gpu_table.trace_stop - gpu_table.trace_start
    if window <= 0:
        raise ValueError("empty trace window")
    busy = {}
    for row in gpu_table.rows:
        busy[row[0]] = busy.get(row[0], 0) + (row[6] - row[5])
    return {process: (total, 100.0 * total / window)
            for process, total in busy.items()}


def threads_by_time(cpu_table, process=None, top=None):
    """Per-thread busy time, descending — WPA's thread-level view.

    Returns ``[(process, thread_name, tid, busy_us), ...]``; restrict
    to one ``process`` and/or the ``top`` N threads.
    """
    busy = {}
    for row in cpu_table.rows:
        if process is not None and row[0] != process:
            continue
        key = (row[0], row[3], row[2])
        busy[key] = busy.get(key, 0) + (row[7] - row[6])
    ranked = sorted(((p, name, tid, total)
                     for (p, name, tid), total in busy.items()),
                    key=lambda item: item[3], reverse=True)
    return ranked[:top] if top else ranked
