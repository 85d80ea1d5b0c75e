"""The identity referee's comparison of two output directories (no git,
no subprocess: ``compare_dirs`` on files written here)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"
spec = importlib.util.spec_from_file_location("identity", SCRIPT)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def provenance(root, duration, key="abc"):
    return {
        "run_id": "r",
        "config": {"k": 5},
        "data": f"{root}/data.csv",
        "stages": [{"stage": "ingest", "key": key, "path": f"{root}/ingest/{key}.series.csv",
                    "status": "computed", "duration_s": duration}],
        "report": f"{root}/r/report.json",
    }


@pytest.fixture
def trees(tmp_path):
    """Two output trees with the same artifacts; their provenance differs
    only in paths and durations."""
    out = []
    for side, duration in (("a", 0.25), ("b", 1.5)):
        root = tmp_path / side
        (root / "r" / "ingest").mkdir(parents=True)
        (root / "r" / "ingest" / "abc.series.csv").write_bytes(b"timestamp,f0,label\n0,1.5,0\n")
        (root / "r" / "report.txt").write_bytes(b"Accuracy\n1.0000\n")
        (root / "r" / "provenance.json").write_text(json.dumps(provenance(root, duration)), encoding="utf-8")
        out.append(root)
    return out


def test_same_outputs_are_identical_despite_provenance_paths_and_durations(trees):
    assert identity.compare_dirs(*trees) == (3, [])


def test_a_changed_byte_is_reported_with_its_path(trees):
    a, b = trees
    (b / "r" / "ingest" / "abc.series.csv").write_bytes(b"timestamp,f0,label\n0,1.6,0\n")
    assert identity.compare_dirs(a, b) == (3, ["r/ingest/abc.series.csv: differs at byte 23"])


def test_a_file_in_one_tree_only_is_a_difference(trees):
    a, b = trees
    (b / "r" / "report.json").write_bytes(b"{}")
    assert identity.compare_dirs(a, b) == (3, ["r/report.json: only in the second tree"])


def test_provenance_other_than_paths_and_durations_is_compared(trees):
    a, b = trees
    (b / "r" / "provenance.json").write_text(json.dumps(provenance(b, 1.5, key="abd")), encoding="utf-8")
    assert identity.compare_dirs(a, b) == (3, ["r/provenance.json: ingest key 'abc' -> 'abd'"])


def test_every_differing_file_is_listed(trees):
    a, b = trees
    (b / "r" / "ingest" / "abc.series.csv").write_bytes(b"timestamp,f0,label\n0,1.6,0\n")
    (b / "r" / "report.txt").write_bytes(b"Accuracy\n0.5000\n")
    (a / "r" / "extra.csv").write_bytes(b"x\n")
    assert identity.compare_dirs(a, b) == (3, [
        "r/extra.csv: only in the first tree",
        "r/ingest/abc.series.csv: differs at byte 23",
        "r/report.txt: differs at byte 9",
    ])


def test_provenance_names_each_differing_status_and_reason(trees):
    a, b = trees
    record = provenance(b, 1.5)
    record["stages"][0].update(status="skipped", reason="corrupt")
    (b / "r" / "provenance.json").write_text(json.dumps(record), encoding="utf-8")
    assert identity.compare_dirs(a, b) == (3, [
        "r/provenance.json: ingest reason None -> 'corrupt'; ingest status 'computed' -> 'skipped'"
    ])


def test_provenance_differing_outside_its_stages_is_summarized(trees):
    a, b = trees
    record = dict(provenance(b, 1.5), config={"k": 7})
    (b / "r" / "provenance.json").write_text(json.dumps(record), encoding="utf-8")
    assert identity.compare_dirs(a, b) == (3, [
        "r/provenance.json: differs in more than paths, durations and stage fields"
    ])
