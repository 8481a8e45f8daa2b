"""tests/ab.py, the in-process A/B: its summary arithmetic and its byte check."""

import argparse
import shutil
import sys
from pathlib import Path

import pytest

import ab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tumornet"


class TestSummary:
    def test_median_quartiles_and_wins(self):
        summary = ab.summarize([0.9, 1.1, 0.8, 1.0, 0.95])
        assert summary == {
            "pairs": 5,
            "median_ratio": 0.95,
            "quartiles": [0.9, 1.0],
            # A ratio of exactly 1 is no win.
            "change_faster_in": 3,
        }

    def test_one_pair(self):
        assert ab.summarize([1.2]) == {
            "pairs": 1, "median_ratio": 1.2, "quartiles": [1.2, 1.2], "change_faster_in": 0,
        }

    def test_connected_start_is_the_benchmarks(self):
        workloads = (ROOT / "bench" / "workloads.py").read_text()
        assert f'CONNECTED_500 = """\\\n{ab.CONNECTED_500}"""' in workloads

    def test_seed_ranges(self):
        assert ab.parse_seeds("7-11") == [7, 8, 9, 10, 11]
        assert ab.parse_seeds("42") == [42]
        with pytest.raises(argparse.ArgumentTypeError):
            ab.parse_seeds("11-7")


@pytest.fixture
def trees(tmp_path):
    """Two copies of src/tumornet, under base and change in a temporary directory.

    The test loads them under ab's package names, which are dropped after it.
    """
    for side in ("base", "change"):
        shutil.copytree(SRC, tmp_path / side, ignore=shutil.ignore_patterns("__pycache__"))
    yield tmp_path
    for name in [name for name in sys.modules if name.split(".")[0] in ("tumornet_base", "tumornet_change")]:
        del sys.modules[name]


class TestPair:
    def test_same_trees_give_a_ratio(self, trees):
        for side in ("base", "change"):
            ab.load(f"tumornet_{side}", trees / side)
        assert ab.pair(ab.connected_500, [7], first_base=True) > 0

    def test_a_changed_byte_fails_the_pair(self, trees):
        # The base writes every table's header with its first letter upper-case.
        cli_io = trees / "base" / "cli_io.py"
        old = 'header = ",".join(f.name for f in fields(record))'
        text = cli_io.read_text()
        assert text.count(old) == 1
        cli_io.write_text(text.replace(old, old + ".capitalize()"))
        for side in ("base", "change"):
            ab.load(f"tumornet_{side}", trees / side)
        with pytest.raises(ab.BytesDiffer, match="seed 7"):
            ab.pair(ab.connected_500, [7], first_base=False)
