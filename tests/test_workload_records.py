"""The records of the benchmark's unit-roots sessions are pinned: gen-dim,
gamma and Cartier nilpotence, the twist, check-2-14, pullback and
transition must answer byte for byte as before on the four sessions that
perfbench/workloads.py builds at seeds 1-3.  A change that alters any of
these answers changes the digest and must say why."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from frobkit.session import run_session

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
UNIT_ROOTS_SHA256 = ("867ec1cfdd7f975ae69999de7e091f2d"
                     "30149ded890aa90688c76b7a46f54b3d")


def load_workloads():
    # workloads.py imports its neighbour checks.py as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_unit_roots_records_are_pinned():
    workloads = load_workloads()
    records = [run_session(data) for seed in (1, 2, 3)
               for _, data, _ in workloads.UnitRoots(seed).sessions]
    assert len(records) == 12 and sum(map(len, records)) == 66
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == UNIT_ROOTS_SHA256
