"""``dse-campaign``: ``repro dse`` with its defaults on a 20,000-config grid.

Defaults of the verb: handbrake, premiere and excel; 1 simulated second;
chunk 4; 8 equivalence samples; serial (``--jobs`` unset gives a
``SupervisedExecutor(jobs=None)``, which runs in-process).  The benchmark
seed is the ``--seed`` of the config generator and of every run.
"""

import json

from perfbench.common import clock, peak_rss_mib, sha256, simulated_records
from perfbench.stats import FailureTally

CONFIGS = 20_000


class DseCampaign:
    name = "dse-campaign"
    setup_modules = ("repro.cli", "repro.analysis.dse",
                     "repro.hardware.catalog")

    def __init__(self, seed, work):
        self.seed = seed
        self.path = work / "dse.json"
        self.specs = None

    def provenance(self):
        return {"configs": CONFIGS, "apps": ["handbrake", "premiere", "excel"],
                "duration_s": 1.0, "chunk": 4, "equivalence_samples": 8,
                "jobs": "serial (repro dse default)"}

    def run_pass(self, tracer=None):
        from repro.cli import main
        from repro.harness.supervisor import SupervisedExecutor

        captured = []
        original = SupervisedExecutor.map
        capture = self.specs is None and tracer is None
        if capture:
            # Keep the simulated specs of the first pass so their trace
            # records can be counted afterwards, outside any timing.
            def keep(executor, specs):
                specs = list(specs)
                captured.append(specs)
                return original(executor, specs)
            SupervisedExecutor.map = keep
        lines = []
        try:
            start = clock()
            status = main(["dse", "--configs", str(CONFIGS),
                           "--seed", str(self.seed),
                           "--json", str(self.path)], out=lines.append)
            wall = clock() - start
        finally:
            if capture:
                SupervisedExecutor.map = original
        body = self.path.read_bytes()
        payload = json.loads(body)
        stats = payload["stats"]
        if capture:
            # One supervised sweep: the base runs, then the equivalence
            # re-simulations (see events()).
            self.specs = captured[0][:stats["base_runs"]]
        equivalence = payload["equivalence"]
        tally = FailureTally()
        tally.runs(stats["base_runs"], stats["failed_runs"])
        tally.runs(stats["equivalence_runs"],
                   0 if equivalence["ok"] else stats["equivalence_runs"])
        return {"wall_s": wall, "peak_rss_mib": peak_rss_mib(),
                "digest": sha256(body, "\n".join(lines)),
                "tally": tally, "points": stats["grid_points"],
                "status": status, "payload": payload}

    def check(self, first):
        payload = first["payload"]
        problems = []
        if first["status"] != 0:
            problems.append(f"repro dse exited {first['status']}")
        if not payload["equivalence"]["ok"]:
            problems.append(f"equivalence failed: {payload['equivalence']}")
        if payload["stats"]["failed_runs"] or payload["failures"]:
            problems.append("quarantined runs in the campaign")
        if payload["stats"]["grid_points"] != 3 * CONFIGS:
            problems.append("grid is not 3 apps x 20,000 configs")
        return problems

    def fidelity(self, first, golden):
        """The campaign runs no Table II protocol: the distance is the
        golden grid's paper-machine column, replayed by the gate."""
        return golden

    def events(self):
        """Trace records of the campaign's base runs, one per app and
        trace signature.  The 8 equivalence re-simulations are left out:
        they are a seeded sample of machines whose records vary almost
        twofold between seeds (1,172 to 2,060 on seeds 1, 2, 5 and 8,
        against 7,830 to 7,930 for the base runs)."""
        return simulated_records(self.specs)

    def layer_extras(self, first):
        stats = first["payload"]["stats"]
        return {"analysis.dse.signatures": (stats["signatures"], "count"),
                "analysis.dse.analytic_fraction": (
                    stats["analytic_fraction"], "ratio")}
