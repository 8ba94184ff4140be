"""The package runs on the standard library alone.

A fresh interpreter started without ``site`` (so no installed
third-party package is importable) and with only ``src`` on its path
imports the CLI and the service, runs one analysis and one DTD
inference, and reports every top-level module it loaded.  Optional
backends stay import-gated behind their extras (``[postgres]``).
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repro.cli, repro.serve.server
from repro import analyze, parse_xml, xmark_dtd
from repro.schema import infer_dtd
report = analyze("/site/people/person/name", "delete //person", xmark_dtd())
assert not report.independent, report
infer_dtd([parse_xml("<doc><a><c/></a><b><c/></b></doc>")])
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_only_stdlib_modules_are_loaded():
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names
               and name not in ("repro", "__main__", "__mp_main__")]
    assert foreign == []
