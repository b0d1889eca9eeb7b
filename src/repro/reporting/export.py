"""Machine-readable export of suite results as CSV.

The text renderers in :mod:`repro.reporting.tables` target terminals;
this export targets spreadsheets.
"""

import csv

from repro.apps import CATEGORIES
from repro.data import PAPER_TABLE2


def suite_to_csv(suite_result, path):
    """Write one row per application: measured vs paper values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "app", "display_name", "category",
            "tlp_mean", "tlp_std", "tlp_paper",
            "gpu_mean", "gpu_std", "gpu_paper",
            "max_instantaneous", "gpu_capped",
        ])
        for category, names in CATEGORIES.items():
            for name in names:
                if name not in suite_result.results:
                    continue
                result = suite_result.results[name]
                paper_tlp, paper_gpu = PAPER_TABLE2[name]
                writer.writerow([
                    name, result.display_name, category.value,
                    f"{result.tlp.mean:.3f}", f"{result.tlp.std:.3f}",
                    paper_tlp,
                    f"{result.gpu_util.mean:.3f}",
                    f"{result.gpu_util.std:.3f}", paper_gpu,
                    result.max_instantaneous, result.gpu_capped,
                ])

