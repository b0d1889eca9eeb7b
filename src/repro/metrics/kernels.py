"""Batched sweep kernels over whole event buffers, and the DSE
scoring kernels over config columns.

The WPA tables (:mod:`repro.trace.wpa`) hand the metric folds parallel
``(times, deltas)`` buffers born from the columnar ``array('q')``
trace stores (:mod:`repro.trace.columns`), and the kernels here sweep
them wholesale instead of boxing one ``(time, +1/-1)`` tuple per
event.  The DSE scorer (:mod:`repro.analysis.dse.score`) works on a
config group's columns the same way: :func:`gather` takes the group's
rows out of the machine grid's typed columns, :func:`node_factors`
turns tech nodes and DVFS ratios into time and power factors,
:func:`batch_active_energy` prices one activity histogram under every
config, :func:`score_tail` turns those joules into wall, energy and
EDP columns, and :func:`argmin` finds a group's lowest-EDP member.

Two backends implement the same kernels, chosen by whether numpy
imports (the package's runtime dependencies are empty, so a plain
install takes the second):

* ``numpy``: clip/diff/cumsum/bincount over int64 views of the
  buffers, and indexing and element-wise float64 arithmetic over views
  of the config columns — no per-event or per-config Python bytecode
  but the ``d ** 3`` of :func:`node_factors`.
* pure Python: the scalar sweep loop of :mod:`repro.metrics.intervals`
  run over the zipped buffers, and list arithmetic over the config
  columns.

The integer sweeps agree bit for bit with
:func:`repro.metrics.intervals.fused_sweep`, the reference the
property suite compares both backends against.  The gather, the node
factors, the scoring tail and the argmin agree bit for bit too (numpy
rounds each ``+``, ``*`` and ``/`` as Python does, and the operations
run in the same order); only :func:`batch_active_energy`'s ``**`` may
round differently.
"""

from array import array

from repro.metrics.intervals import FusedSweep, fused_sweep as _scalar_sweep

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None


def numpy_available():
    """True when the numpy backend can be used."""
    return _np is not None


def _as_int64(buffer):
    """int64 view of a buffer — zero-copy for ``array('q')``/ndarray,
    a conversion for any other sequence of integers."""
    if isinstance(buffer, _np.ndarray):
        return buffer
    if isinstance(buffer, array) and buffer.itemsize == 8:
        if len(buffer) == 0:
            return _np.empty(0, dtype=_np.int64)
        return _np.frombuffer(buffer, dtype=_np.int64)
    return _np.asarray(buffer, dtype=_np.int64)


def build_event_arrays(starts, stops, mask=None):
    """Sorted parallel ``(times, deltas)`` buffers for interval
    endpoint columns — the batched counterpart of
    :func:`repro.metrics.intervals.interval_events`.

    ``starts``/``stops`` are parallel ``array('q')`` (or ndarray)
    columns; ``mask`` optionally selects a row subset (a bool ndarray
    or any sequence of 0/1 flags).  Ties order ``-1`` before ``+1``,
    matching the tuple sort of ``interval_events`` (-1 < +1).
    """
    if _np is not None:
        s = _as_int64(starts)
        e = _as_int64(stops)
        if mask is not None:
            mask = _np.asarray(mask, dtype=bool)
            s = s[mask]
            e = e[mask]
        times = _np.concatenate([s, e])
        deltas = _np.concatenate([
            _np.ones(len(s), dtype=_np.int64),
            _np.full(len(e), -1, dtype=_np.int64),
        ])
        order = _np.lexsort((deltas, times))
        return times[order], deltas[order]
    if mask is not None:
        pairs = [(s, e) for s, e, keep in zip(starts, stops, mask) if keep]
    else:
        pairs = list(zip(starts, stops))
    events = []
    for s, e in pairs:
        events.append((s, 1))
        events.append((e, -1))
    events.sort()
    times = array("q", (t for t, _ in events))
    deltas = array("q", (d for _, d in events))
    return times, deltas


def occupancy_sweep(times, deltas, window_start, window_stop):
    """One traversal returning ``(FusedSweep, busy_sum)``.

    ``busy_sum`` integrates the concurrency level over the window —
    by Fubini exactly the sum of the intervals' window-clipped
    lengths, the numerator of the paper's §III-B sum-of-ratios GPU
    utilization (integer arithmetic throughout, so the identity is
    exact, not approximate).

    The sweep itself is bit-identical to :func:`repro.metrics.
    intervals.fused_sweep` over the equivalent ``(time, delta)`` tuple
    list (the property suite pins this on adversarial edge cases).
    ``times`` must be sorted ascending with ``-1`` deltas first at
    ties — the contract of :func:`build_event_arrays`.
    """
    if window_stop < window_start:
        raise ValueError("window_stop before window_start")
    if window_stop == window_start:
        return FusedSweep({0: 0}, 0, 0), 0
    if _np is None or len(times) == 0:
        sweep = _scalar_sweep((), window_start, window_stop,
                              events=zip(times, deltas))
        return sweep, _busy_from_profile(sweep.profile)
    t = _np.clip(_as_int64(times), window_start, window_stop)
    d = _as_int64(deltas)
    # Clamped times are non-decreasing and >= window_start, so the
    # scalar sweep's running ``prev`` is simply the previous clamped
    # time: the spans are one diff, the level under each span one
    # exclusive cumsum.
    bounds = _np.empty(len(t) + 1, dtype=_np.int64)
    bounds[0] = window_start
    bounds[1:] = t
    spans = _np.diff(bounds)
    levels = _np.empty(len(d), dtype=_np.int64)
    levels[0] = 0
    _np.cumsum(d[:-1], out=levels[1:])
    if bool((spans[levels < 0] > 0).any()):
        # Malformed input (an end before its start accruing measure):
        # defer to the scalar loop so the defensive semantics stay in
        # exactly one place.
        sweep = _scalar_sweep((), window_start, window_stop,
                              events=zip(times, deltas))
        return sweep, _busy_from_profile(sweep.profile)
    busy = (spans > 0) & (levels > 0)
    busy_spans = spans[busy]
    busy_levels = levels[busy]
    covered = int(busy_spans.sum())
    peak = int(busy_levels.max(initial=0))
    busy_sum = int((busy_spans * busy_levels).sum())
    total = window_stop - window_start
    profile = {0: total - covered}
    counts = _np.bincount(busy_levels, weights=busy_spans)
    for level in _np.nonzero(counts)[0]:
        profile[int(level)] = int(counts[level])
    return FusedSweep(profile, covered, peak), busy_sum


def _busy_from_profile(profile):
    """Level-weighted measure of a sweep profile (= clipped busy sum)."""
    return sum(level * span for level, span in profile.items() if level > 0)


def fused_sweep_arrays(times, deltas, window_start, window_stop):
    """Concurrency profile, union length and peak over event buffers
    (the :func:`occupancy_sweep` without its busy integral)."""
    return occupancy_sweep(times, deltas, window_start, window_stop)[0]


def gather(rows, *columns):
    """Entries ``rows`` of each typed column (an ``array('q')`` or
    ``array('d')``), in the scoring kernels' layout: on the numpy
    backend one int64 or float64 array per column, taken by one index
    operation on a zero-copy view of the column's buffer; on the
    pure-Python one a list per column."""
    if _np is None:
        return [[column[i] for i in rows] for column in columns]
    rows = _np.asarray(rows, dtype=_np.intp)
    return [_np.frombuffer(column, dtype=column.typecode)[rows]
            for column in columns]


def full(n, value):
    """A column of ``n`` copies of ``value``, in the kernels' layout."""
    if _np is None:
        return [value] * n
    return _np.full(n, value, dtype=_np.float64)


def node_factors(techs, dvfs, ref, node_clock, node_power):
    """``(time_scale, node_scale)`` columns of configs at tech nodes
    ``techs`` and DVFS ratios ``dvfs`` (as :func:`gather` returns
    them): ``ref / (node_clock[t] * d)`` and ``node_power[t] * d ** 3``.

    On the numpy backend each mapping becomes a lookup table indexed
    by the tech column (NaN at nodes it lacks) and each ``*`` and
    ``/`` one element-wise operation, rounded as Python rounds it;
    ``d ** 3`` stays a Python ``**`` per config, as numpy's ``power``
    may round differently.  Both backends return the same floats.
    """
    if _np is None:
        return ([ref / (node_clock[t] * d) for t, d in zip(techs, dvfs)],
                [node_power[t] * d ** 3 for t, d in zip(techs, dvfs)])
    clock, power = (_np.array([table.get(t, _np.nan)
                               for t in range(max(table) + 1)])
                    for table in (node_clock, node_power))
    cube = _np.array([d ** 3 for d in dvfs.tolist()], dtype=_np.float64)
    return ref / (clock[techs] * dvfs), power[techs] * cube


def batch_active_energy(t_us, class_idx, clock_factors, active_power_w,
                        exponents):
    """Active CPU joules of one activity histogram under N coefficient
    sets — the DSE re-scoring primitive.

    The histogram (see :meth:`repro.os.energy.EnergyModel.activity`)
    arrives flattened into K parallel entries: ``t_us[k]`` integer
    microseconds, ``class_idx[k]`` a class column of the power table,
    ``clock_factors[k]`` the turbo multiplier.  Configs are the other
    axis, laid out class-major: ``active_power_w[c][n]`` watts of
    class column ``c`` for config ``n`` (one column per work class, as
    a config group keeps them), ``exponents[n]`` the dynamic-power
    exponent.  Returns the N joule totals, a float64 array on the
    numpy backend and a list on the pure-Python one, each

    ``sum_k  active_power_w[class_idx[k]][n]
             * clock_factors[k] ** exponents[n] * t_us[k] / 1e6``

    accumulated in ``k`` order on both backends.  The numpy backend
    runs one fused numpy pass per histogram entry over all N configs
    (K is tiny — work classes x clock levels — while N is the campaign
    grid, so the N axis is the one worth vectorizing).  Unlike the
    integer sweep kernels above, the two backends agree to float
    tolerance rather than bit-for-bit: ``numpy`` may fuse ``**`` with
    SIMD rounding.  The DSE equivalence suite compares with a relative
    tolerance accordingly.
    """
    n_configs = len(exponents)
    if _np is not None and n_configs:
        power = [_np.asarray(c, dtype=_np.float64) for c in active_power_w]
        alpha = _np.asarray(exponents, dtype=_np.float64)
        totals = _np.zeros(n_configs, dtype=_np.float64)
        for k, wall_us in enumerate(t_us):
            totals += (power[class_idx[k]]
                       * clock_factors[k] ** alpha
                       * wall_us / 1e6)
        return totals
    totals = [0.0] * n_configs
    for k, wall_us in enumerate(t_us):
        column = active_power_w[class_idx[k]]
        factor = clock_factors[k]
        for n in range(n_configs):
            totals[n] += (column[n] * factor ** exponents[n]
                          * wall_us / 1e6)
    return totals


def score_tail(active_ref_j, duration_us, busy_fraction, time_scale,
               node_scale, cpu_idle_w, gpu_span_w, gpu_idle_w):
    """``(wall_s, energy_j, edp_js)`` columns of N configs that share
    one base run — the DSE scoring tail.

    Per config ``n``, from its reference-time active joules
    ``active_ref_j[n]`` (:func:`batch_active_energy`), its time and
    power factors and its idle and GPU watts, with the base run's
    ``duration_us`` and GPU ``busy_fraction``::

        wall   = duration_us * time_scale[n] / 1e6
        energy = active_ref_j[n] * node_scale[n] * time_scale[n]
                 + cpu_idle_w[n] * wall
                 + (gpu_span_w[n] * busy_fraction + gpu_idle_w[n]) * wall
        edp    = energy * wall

    in this operation order, which is the order of
    ``analysis.dse.score._assemble``.  numpy applies each operation per
    element and rounds it as Python does, so both backends return the
    same floats: float64 arrays on the numpy backend, lists on the
    pure-Python one.
    """
    if _np is None:
        wall = [duration_us * scale / 1e6 for scale in time_scale]
        energy = [
            active * node * scale + idle * wall_s
            + (span * busy_fraction + gpu_idle) * wall_s
            for active, node, scale, idle, wall_s, span, gpu_idle in zip(
                active_ref_j, node_scale, time_scale, cpu_idle_w, wall,
                gpu_span_w, gpu_idle_w)
        ]
        edp = [energy_j * wall_s for energy_j, wall_s in zip(energy, wall)]
        return wall, energy, edp
    active_ref_j, time_scale, node_scale, cpu_idle_w, gpu_span_w, \
        gpu_idle_w = (_np.asarray(column, dtype=_np.float64) for column in (
            active_ref_j, time_scale, node_scale, cpu_idle_w, gpu_span_w,
            gpu_idle_w))
    wall = duration_us * time_scale / 1e6
    energy = (active_ref_j * node_scale * time_scale + cpu_idle_w * wall
              + (gpu_span_w * busy_fraction + gpu_idle_w) * wall)
    return wall, energy, energy * wall


def argmin(values, keys):
    """Position of the least of ``values``, ties going to the least
    ``keys`` entry and then to the first position — the order of
    ``min(zip(values, keys, positions))``, the pure-Python backend.

    On the numpy backend one argmin finds the least value, and only
    when it is tied are the tied positions' keys compared; the two
    backends agree on every NaN-free ``values``.
    """
    if _np is None:
        return min(zip(values, keys, range(len(values))))[2]
    values = _np.asarray(values, dtype=_np.float64)
    k = int(values.argmin())
    ties = _np.flatnonzero(values == values[k])
    if len(ties) > 1:
        k = min(ties.tolist(), key=lambda j: (keys[j], j))
    return k


def interned_mask(ids, name_table, processes):
    """Row mask selecting rows whose interned ``ids`` name one of
    ``processes``: a bool ndarray on the numpy backend, a list of 0/1
    flags on the pure-Python one (both as :func:`build_event_arrays`
    takes a ``mask``)."""
    wanted = [name_table._ids[name] for name in processes
              if name in name_table._ids]
    if _np is None:
        wanted = set(wanted)
        return [index in wanted for index in ids]
    if not wanted:
        return _np.zeros(len(ids), dtype=bool)
    return _np.isin(_as_int64(ids), _np.asarray(wanted, dtype=_np.int64))
