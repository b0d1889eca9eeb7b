"""``table2-cold``: the paper's Table II protocol, the way ``repro suite``
runs it — ``run_suite`` then ``render_table2`` then the JSON save.

All 30 apps x 3 iterations on the paper machine, serial, post-hoc trace
pipeline, no result cache; the benchmark seed is the iteration base
seed.
"""

import random
from contextlib import nullcontext

from perfbench.common import clock, count_records, peak_rss_mib, sha256
from perfbench.gate import fidelity
from perfbench.stats import FailureTally

#: Simulated seconds per iteration.  Halved from 10 s so that a 30-s
#: run holds about eight passes, each bracketed by the reference loop
#: (see the README, "Normalized times"); the fidelity metrics are
#: defined at this length.
DURATION_S = 5.0
ITERATIONS = 3
#: Runs re-simulated with ``streaming=True`` per invocation.
STREAMING_SAMPLE = 6


class Table2Cold:
    name = "table2-cold"
    setup_modules = ("repro.cli", "repro.harness.persistence")

    def __init__(self, seed, work):
        self.seed = seed
        self.path = work / "table2.json"
        self.records = None

    def provenance(self):
        return {"duration_s": DURATION_S, "iterations": ITERATIONS,
                "apps": 30, "runs_per_pass": 30 * ITERATIONS,
                "machine": "paper (12 LCPUs, SMT on)", "jobs": "serial",
                "streaming_sample": STREAMING_SAMPLE}

    def run_pass(self, tracer=None):
        from repro import reporting
        from repro.apps import SUITE
        from repro.harness import run_suite
        from repro.harness.persistence import save_suite
        from repro.hardware import paper_machine
        from repro.sim import SECOND

        count = self.records is None and tracer is None
        with count_records() if count else nullcontext() as records:
            start = clock()
            suite = run_suite(SUITE, machine=paper_machine(),
                              duration_us=int(DURATION_S * SECOND),
                              iterations=ITERATIONS, base_seed=self.seed)
            table = reporting.render_table2(suite)
            save_suite(suite, self.path,
                       metadata={"duration_s": DURATION_S,
                                 "iterations": ITERATIONS})
            wall = clock() - start
        if count:
            self.records = records[0]
        tally = FailureTally()
        tally.runs(30 * ITERATIONS, len(suite.failures))
        return {"wall_s": wall, "peak_rss_mib": peak_rss_mib(),
                "digest": sha256(self.path.read_bytes(), table),
                "tally": tally, "points": len(suite.results),
                "suite": suite}

    def check(self, first):
        """Per-run plausibility, and streaming == post-hoc on a sample."""
        from repro.apps import SUITE, create_app
        from repro.harness.executor import execute_spec
        from repro.harness.runner import iteration_specs
        from repro.hardware import paper_machine
        from repro.sim import SECOND
        from repro.validate import fingerprint_run
        from repro.validate.invariants import check_single_run

        problems = []
        suite = first["suite"]
        for name in SUITE:
            result = suite.results.get(name)
            if result is None or len(result.runs) != ITERATIONS:
                problems.append(f"{name}: iterations missing")
                continue
            for run in result.runs:
                problems += [f"{name} seed {run.seed}: {p}"
                             for p in check_single_run(run, n_logical=12)]
        rng = random.Random(f"table2-cold:{self.seed}")
        for name, k in rng.sample([(n, k) for n in SUITE
                                   for k in range(ITERATIONS)],
                                  STREAMING_SAMPLE):
            spec = iteration_specs(create_app(name), machine=paper_machine(),
                                   duration_us=int(DURATION_S * SECOND),
                                   iterations=ITERATIONS,
                                   base_seed=self.seed,
                                   streaming=True)[k]
            streamed = fingerprint_run(execute_spec(spec))["digest"]
            posthoc = fingerprint_run(suite.results[name].runs[k])["digest"]
            if streamed != posthoc:
                problems.append(f"{name} iteration {k}: streaming digest "
                                f"differs from post-hoc")
        return problems

    def fidelity(self, first, golden):
        """Distance from Table II of this pass's own 30 rows."""
        return fidelity({name: (r.tlp.mean, r.gpu_util.mean)
                         for name, r in first["suite"].results.items()})

    def events(self):
        return self.records
