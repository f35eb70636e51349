"""The benchmark's tracer (perfbench/tracing.py) patches frobkit functions
and methods by name.  Every name in its TARGETS must resolve, so that a
rename in src/ fails here and not only in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    targets = tracer_targets()
    missing = []
    for modname, path, *_ in targets:
        owner = importlib.import_module("frobkit." + modname)
        if "." in path:
            # the tracer replaces the attribute in the class's own namespace
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{modname}.{path}")
    assert targets and not missing, missing
