"""Persist measurement results to JSON and load them back.

Long characterization campaigns (the paper's public repository keeps
its collected data) need results that outlive the Python process:
``save_suite``/``load_suite`` round-trip everything Table II and the
comparison figures need — per-app TLP/GPU summaries, concurrency
fractions, iteration values — without the heavyweight traces.
"""

import json

from repro.metrics import Summary


def _summary_to_dict(summary):
    return {"mean": summary.mean, "std": summary.std, "n": summary.n,
            "min": summary.minimum, "max": summary.maximum}


def _summary_from_dict(data):
    return Summary(mean=data["mean"], std=data["std"], n=data["n"],
                   minimum=data["min"], maximum=data["max"])


def app_result_to_dict(result):
    """Serialize an :class:`~repro.harness.runner.AppResult`."""
    return {
        "app_name": result.app_name,
        "display_name": result.display_name,
        "category": result.category.value,
        "tlp": _summary_to_dict(result.tlp),
        "gpu_util": _summary_to_dict(result.gpu_util),
        "fractions": list(result.fractions),
        "max_instantaneous": result.max_instantaneous,
        "gpu_capped": result.gpu_capped,
        "partial": result.partial,
        "iteration_tlp": [run.tlp.tlp for run in result.runs],
        "iteration_gpu": [run.gpu_util.utilization_pct
                          for run in result.runs],
        "outputs": {key: value for key, value in result.outputs.items()
                    if isinstance(value, (int, float, str, bool))},
    }


class StoredAppResult:
    """A loaded result: same reading surface as a live AppResult."""

    def __init__(self, data):
        from repro.apps.base import Category

        self.app_name = data["app_name"]
        self.display_name = data["display_name"]
        self.category = Category(data["category"])
        self.tlp = _summary_from_dict(data["tlp"])
        self.gpu_util = _summary_from_dict(data["gpu_util"])
        self.fractions = list(data["fractions"])
        self.max_instantaneous = data["max_instantaneous"]
        self.gpu_capped = data["gpu_capped"]
        self.partial = data.get("partial", False)
        self.iteration_tlp = list(data["iteration_tlp"])
        self.iteration_gpu = list(data["iteration_gpu"])
        self.outputs = dict(data["outputs"])


def save_suite(suite_result, path, metadata=None):
    """Write a :class:`~repro.harness.suite.SuiteResult` to JSON.

    The document is rendered by the same payload builder and canonical
    encoder the sweep service uses, so a saved file is byte-identical
    to the service's ``GET /sweeps/{id}/result`` body for the same
    specs and metadata.
    """
    from repro.reporting.payloads import canonical_json_bytes, suite_payload

    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(suite_payload(suite_result,
                                                    metadata=metadata)))


def load_suite(path):
    """Load a stored suite; returns a SuiteResult over StoredAppResult.

    A file that is not JSON, not a suite result, or a suite result
    missing a field raises ``ValueError`` naming the file.
    """
    from repro.harness.executor import RunFailure
    from repro.harness.suite import SuiteResult
    from repro.reporting.payloads import SUITE_FORMAT

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # bad JSON or bad UTF-8
            raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != SUITE_FORMAT:
        raise ValueError(f"{path} is not a repro suite result file")
    try:
        return SuiteResult(
            results={name: StoredAppResult(data)
                     for name, data in payload["results"].items()},
            failures=[RunFailure.from_payload(data)
                      for data in payload.get("failures", ())])
    except KeyError as exc:
        raise ValueError(f"{path}: suite result is missing field "
                         f"{exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed suite result: {exc}") from None
