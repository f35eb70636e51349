"""The records of the benchmark's unit-roots, rational-points and
ideal-groebner sessions are pinned: gen-dim, gamma and Cartier nilpotence,
the twist, check-2-14, pullback and transition, the solution space at every
point, and the reduced Groebner bases of Katsura-4 and Katsura-5, must
answer byte for byte as before on the sessions that perfbench/workloads.py
builds at seeds 1-3.  A change that alters any of these answers changes a digest
and must say why."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from frobkit.session import run_session

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
UNIT_ROOTS_SHA256 = ("867ec1cfdd7f975ae69999de7e091f2d"
                     "30149ded890aa90688c76b7a46f54b3d")
RATIONAL_POINTS_SHA256 = ("a3691afa66e6021bc0e40cf159f3ca88"
                          "134bb081ad57b1f94cd0fdb365c4e829")
IDEAL_GROEBNER_SHA256 = ("aec9e3ef49d78f3e2d93f3f9927e5b39"
                         "28c14c5a49ed7153ea09208f253426c6")


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


def test_rational_points_records_are_pinned():
    workloads = load_workloads()
    records = [run_session(data) for seed in (1, 2, 3)
               for _, data, _ in workloads.RationalPoints(seed).sessions]
    assert len(records) == 6 and sum(map(len, records)) == 12
    assert sum(len(r["result"]["solutions"])
               for session in records for r in session) == 10518
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RATIONAL_POINTS_SHA256


def test_ideal_groebner_records_are_pinned():
    workloads = load_workloads()
    records = [run_session(data) for seed in (1, 2, 3)
               for _, data, _ in workloads.IdealGroebner(seed).sessions]
    assert [len(r) for r in records] == [1] * 6
    assert [len(r[0]["result"]["basis"]) for r in records] == [13, 22] * 3
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == IDEAL_GROEBNER_SHA256
