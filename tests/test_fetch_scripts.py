"""The fetch scripts' normalization logic, exercised on synthetic raw
archives (the real downloads need network access)."""

import json
import zipfile
from datetime import datetime, timedelta

import numpy as np
import pytest

from topowin import PipelineConfig, run
from conftest import load_script

occupancy = load_script("fetch_occupancy")
arem = load_script("fetch_arem")


def occupancy_block(start: datetime, n: int, label_period=7, indexed=True):
    rng = np.random.default_rng(int(start.timestamp()) % 100000)
    lines = ['"date","Temperature","Humidity","Light","CO2","HumidityRatio","Occupancy"']
    for i in range(n):
        ts = start + timedelta(minutes=i)
        occupied = 1 if (i // label_period) % 2 else 0
        vals = rng.normal([21, 25, 400, 700, 0.004], [1, 2, 150, 80, 0.0004])
        prefix = f'"{i + 1}",' if indexed else ""
        lines.append(
            f'{prefix}"{ts:%Y-%m-%d %H:%M:%S}",{vals[0]:.3f},{vals[1]:.3f},'
            f"{vals[2]:.2f},{vals[3]:.2f},{vals[4]:.6f},{occupied}"
        )
    return "\n".join(lines) + "\n"


class TestOccupancyNormalization:
    def test_parse_block_drops_index_column(self):
        rows = occupancy.parse_block(occupancy_block(datetime(2015, 2, 2, 14), 5))
        assert len(rows) == 5
        assert len(rows[0]) == 7
        assert rows[0][0].startswith("2015-02-02")

    def test_parse_block_without_index(self):
        rows = occupancy.parse_block(occupancy_block(datetime(2015, 2, 2), 3, indexed=False))
        assert len(rows) == 3

    def test_assemble_orders_blocks_chronologically(self):
        before = occupancy.parse_block(occupancy_block(datetime(2015, 2, 2, 14), 40))
        train = occupancy.parse_block(occupancy_block(datetime(2015, 2, 4, 18), 60))
        after = occupancy.parse_block(occupancy_block(datetime(2015, 2, 11, 15), 50))
        combined, bounds = occupancy.assemble(train, after, before)  # shuffled on purpose
        assert len(combined) == 150
        assert bounds["test_before"] == [0, 40]
        assert bounds["train"] == [40, 100]
        assert bounds["test_after"] == [100, 150]

    def test_assemble_caps_at_protocol_sizes(self):
        before = occupancy.parse_block(occupancy_block(datetime(2015, 2, 2), 2600))
        train = occupancy.parse_block(occupancy_block(datetime(2015, 2, 6), 8143))
        after = occupancy.parse_block(occupancy_block(datetime(2015, 2, 14), 2400))
        _, bounds = occupancy.assemble(train, before, after)
        assert bounds["train"] == [2600, 10600]  # first 8000 training rows
        assert bounds["test_before"] == [600, 2600]  # last 2000 earlier rows
        assert bounds["test_after"] == [10743, 12743]  # first 2000 later rows

    def test_assemble_rejects_training_at_an_end(self):
        a = occupancy.parse_block(occupancy_block(datetime(2015, 2, 2), 10))
        b = occupancy.parse_block(occupancy_block(datetime(2015, 2, 4), 10))
        c = occupancy.parse_block(occupancy_block(datetime(2015, 2, 6), 10))
        with pytest.raises(ValueError, match="not between"):
            occupancy.assemble(a, b, c)  # training block earliest

    def test_end_to_end_fake_archive(self, tmp_path):
        zip_path = tmp_path / "occupancy.zip"
        with zipfile.ZipFile(zip_path, "w") as zf:
            zf.writestr("datatest.txt", occupancy_block(datetime(2015, 2, 2, 14), 300))
            zf.writestr("datatraining.txt", occupancy_block(datetime(2015, 2, 4, 18), 400))
            zf.writestr("datatest2.txt", occupancy_block(datetime(2015, 2, 11, 15), 300))
        root = tmp_path / "repo"
        assert occupancy.main(["--source", str(zip_path), "--root", str(root)]) == 0
        assert (root / "data" / "occupancy.csv").exists()

        payload = json.loads((root / "configs" / "occupancy_test1.json").read_text())
        payload["k"] = 3  # the fake dataset is far smaller than the protocol's
        report = run(
            PipelineConfig.from_dict(payload),
            root / "data" / "occupancy.csv",
            runs_root=tmp_path / "runs",
        )
        assert report.total == 30  # 300-row fake test period -> 30 windows


def arem_instance(n_rows: int, seed: int, comment=True):
    rng = np.random.default_rng(seed)
    lines = []
    if comment:
        lines.append("# Task: activity recognition")
        lines.append("# Columns: time,avg_rss12,var_rss12,avg_rss13,var_rss13,avg_rss23,var_rss23")
    for t in range(n_rows):
        vals = rng.normal([30, 4, 15, 3, 20, 3], 1.0)
        lines.append(f"{t * 250}," + ",".join(f"{v:.2f}" for v in vals))
    return "\n".join(lines) + "\n"


def fake_arem_zip(path, n_instances=4, rows=40):
    with zipfile.ZipFile(path, "w") as zf:
        for activity, base in (("standing", 100), ("cycling", 200)):
            for i in range(1, n_instances + 1):
                zf.writestr(
                    f"AReM/{activity}/dataset{i}.csv",
                    arem_instance(rows, seed=base + i),
                )


class TestAremNormalization:
    def test_parse_instance_skips_comments_and_time(self):
        rows = arem.parse_instance(arem_instance(12, seed=1))
        assert len(rows) == 12
        assert len(rows[0]) == 6

    def test_collect_truncates_to_whole_windows(self, tmp_path):
        zip_path = tmp_path / "arem.zip"
        with zipfile.ZipFile(zip_path, "w") as zf:
            zf.writestr("AReM/standing/dataset1.csv", arem_instance(23, seed=5))
            zf.writestr("AReM/cycling/dataset1.csv", arem_instance(25, seed=6))
        with zipfile.ZipFile(zip_path) as zf:
            instances = arem.collect_instances(zf)
        assert len(instances["standing"][0]) == 20
        assert len(instances["cycling"][0]) == 25

    def test_interleave_alternates_classes(self, tmp_path):
        zip_path = tmp_path / "arem.zip"
        fake_arem_zip(zip_path, n_instances=2, rows=10)
        with zipfile.ZipFile(zip_path) as zf:
            instances = arem.collect_instances(zf)
        series, labels = arem.interleave(instances)
        assert len(series) == len(labels) == 40
        assert labels[:10] == [0] * 10
        assert labels[10:20] == [1] * 10
        assert labels[20:30] == [0] * 10

    def test_split_boundaries_are_window_aligned(self):
        bounds = arem.split_boundaries(14400)
        assert bounds == {"train": [0, 8640], "validation": [8640, 11520], "test": [11520, 14400]}
        for a, b in bounds.values():
            assert a % 5 == 0 and b % 5 == 0

    def test_end_to_end_fake_archive(self, tmp_path):
        zip_path = tmp_path / "arem.zip"
        fake_arem_zip(zip_path, n_instances=6, rows=40)
        root = tmp_path / "repo"
        assert arem.main(["--source", str(zip_path), "--root", str(root)]) == 0
        payload = json.loads((root / "configs" / "arem_test.json").read_text())
        payload["k"] = 3
        report = run(
            PipelineConfig.from_dict(payload),
            root / "data" / "arem.csv",
            runs_root=tmp_path / "runs",
        )
        bounds = arem.split_boundaries(480)
        assert report.total == (bounds["test"][1] - bounds["test"][0]) // 5
