"""frobkit runs on the standard library alone: importing it in a fresh
interpreter without site-packages loads no module from outside the standard
library.  Every run of frobkit pays for what its import loads."""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import frobkit
print(json.dumps(sorted({{name.partition(".")[0]
                          for name in set(sys.modules) - before}})))
"""


def test_import_loads_only_the_standard_library():
    out = subprocess.run([sys.executable, "-S", "-c",
                          PROBE.format(src=str(SRC))],
                         capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout)) - {"frobkit"}
    assert loaded, "the probe saw no module load"
    assert loaded <= sys.stdlib_module_names, sorted(
        loaded - sys.stdlib_module_names)
