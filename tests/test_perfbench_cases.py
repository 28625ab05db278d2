"""The benchmark's listed workloads still give their expected summaries.

Each workload that BENCHMARK.json lists runs its cases once at seed 2,
through perfbench/workloads.py, and every case summary must equal its
entry in perfbench/expected.json, the comparison perfbench/run.py makes
on every pass.
"""

import json
from pathlib import Path

import pytest

from util import load_workloads

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("name", LISTED)
def test_listed_workload_matches_expected(name):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    wl = load_workloads().WORKLOADS[name]
    for case, run in wl.cases(wl.load(wl.inputs(2)), 2):
        assert run() == expected.get(case), case
