"""Golden: a surrogate fleet under streaming reports and bounded KV memory.

This pins the serving path the ``fleet-surrogate-ladder`` benchmark times:
four ``least-loaded`` replicas costed by a fitted calibrated cost model, with
``report_mode="streaming"``, serving a heavy-tail trace once on an unbounded
platform and once on a platform whose KV pool forces preemptions.  The hash
covers both cells' complete ``FleetReport.to_dict()`` (minus each replica's
``step_cache`` snapshot, which reports process-wide memo counters), so any
change to admission, KV securing, preemption, routing, step costing or the
streaming sketches shows up here.

The fitted artifact is inlined: it is what ``calibrate_model(MODEL,
budget=8, max_tokens=1024, max_kv_rows=448, **KNOBS)`` returns, with its
context hash dropped, so the pin does not depend on the last bits of a
least-squares solve.  The trace comes from the seeded heavy-tail generator
and is pinned on its own, so a change in the random stream is told apart
from a change in serving.  The simulator is deterministic; if a change is
meant to alter results, re-record both digests with::

    PYTHONPATH=src:tests/serve python -c "import test_fleet_golden as g; \\
        print(g.digest(g.golden_trace().to_dict()), \\
              g.digest(g.payloads(g.golden_reports())))"
"""

import hashlib
import json
import warnings

import pytest

import repro.api
from repro.costmodel import CalibratedCostModel
from repro.serve import kv_bytes_per_row
from repro.serve.generators import generate_trace
from repro.serve.library import _serve_model

MODEL = _serve_model(64)
KNOBS = {"batch_cap": 8, "num_layers": 1, "kv_tile_rows": 64}
#: KV rows each replica of the bounded cell holds (the longest request
#: needs 384 + 24 = 408)
KV_ROWS = 448

FITTED = CalibratedCostModel.from_dict({
    "kind": "calibrated",
    "coefficients": [629.1913697363931, 14.154540179727688,
                     -54.86264400601916, 0.7825723395630535],
    "feature_names": ["intercept", "tokens", "requests", "kv_rows"],
    "feature_min": [1.0, 1.0, 1.0, 64.0],
    "feature_max": [1.0, 513.0, 8.0, 1856.0],
    "num_probes": 6,
    "residual_mean_rel": 0.048246594114112695,
    "residual_max_rel": 0.12721605585549345,
    "cycles_min": 566.5,
    "cycles_max": 8398.533203125,
    "context_hash": "",
    "kv_tile_rows": 64,
    "extrapolation": "clamp",
})

TRACE_DIGEST = "f89b2b9d6d12d288"
PAYLOADS_DIGEST = "666396eb5df7a7d8"


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden_trace():
    return generate_trace("heavy-tail", rate=2000.0, num_requests=400,
                          seed=17, prompt_mean=48.0, prompt_max=384,
                          output_mean=8.0, output_max=24)


def golden_reports():
    """The unbounded cell's and the bounded cell's fleet reports."""
    trace = golden_trace()
    bounded = repro.api.get_platform("sda").replace(
        name=f"sda-kv{KV_ROWS}",
        hbm_capacity_bytes=KV_ROWS * kv_bytes_per_row(
            MODEL, KNOBS["num_layers"]))
    reports = []
    for platform in ("sda", bounded):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamped out-of-range steps
            reports.append(repro.api.serve_fleet(
                MODEL, trace, num_replicas=4, routing="least-loaded",
                platform=platform, **KNOBS, report_mode="streaming",
                engine="surrogate", cost_model=FITTED))
    return reports


def payloads(reports):
    """The reports as hashed: without the process-wide memo snapshots."""
    hashed = []
    for report in reports:
        payload = report.to_dict()
        for replica in payload["replicas"]:
            replica["serving"].pop("step_cache")
        hashed.append(payload)
    return hashed


@pytest.fixture(scope="module")
def reports():
    return golden_reports()


class TestSurrogateFleetGolden:
    def test_trace_is_the_recorded_one(self):
        assert digest(golden_trace().to_dict()) == TRACE_DIGEST

    def test_cells_cover_the_ladder_path(self, reports):
        unbounded, bounded = reports
        assert unbounded.num_requests == bounded.num_requests == 400
        assert unbounded.preemptions == 0
        assert bounded.preemptions > 0
        assert bounded.admission_stalls > 0

    def test_reports_match_the_recorded_digest(self, reports):
        assert digest(payloads(reports)) == PAYLOADS_DIGEST
