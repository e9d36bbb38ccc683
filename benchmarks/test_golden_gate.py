"""The golden-file gate behind ``save_result``.

A regenerated artefact that equals its committed JSON passes, one that
drifts fails the benchmark without touching the file, and a missing file is
written.  ``RESULTS_DIR`` points at a temporary directory so the committed
goldens are never read or written here.
"""

import json
import math

import pytest

import benchmarks.conftest as results

PAYLOAD = {"table": "demo", "rows": [{"method": "a", "f1": 0.5},
                                     {"method": "b", "f1": 1 / 3}],
           "shape": (2, 3)}


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(results, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_missing_golden_is_written(results_dir):
    path = results.save_result("demo", PAYLOAD)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert path == str(results_dir / "demo.json")
    assert text == json.dumps(PAYLOAD, indent=2)


def test_equal_payload_passes(results_dir):
    results.save_result("demo", PAYLOAD)
    before = (results_dir / "demo.json").read_bytes()
    results.save_result("demo", json.loads(json.dumps(PAYLOAD)))
    assert (results_dir / "demo.json").read_bytes() == before


def test_drifted_payload_fails_and_keeps_golden(results_dir):
    results.save_result("demo", PAYLOAD)
    before = (results_dir / "demo.json").read_bytes()
    # one ulp on one cell is drift
    drifted = dict(PAYLOAD, rows=[{"method": "a", "f1": 0.5},
                                  {"method": "b",
                                   "f1": math.nextafter(1 / 3, 1.0)}])
    with pytest.raises(pytest.fail.Exception, match="drifted"):
        results.save_result("demo", drifted)
    assert (results_dir / "demo.json").read_bytes() == before
