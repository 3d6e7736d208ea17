"""The names perfbench's span tracer wraps must exist in the program.

``perfbench/trace/sitecustomize.py`` patches classes and functions of
the serving, core, storage and cluster modules by name (``getattr``)
right after each module is imported.  A missing name raises
``AttributeError`` at import time and kills every traced server, so
this test runs the tracer's ``_patches`` table with a tracer that wraps
nothing, in a subprocess (the patches replace class attributes), and
fails on any error.  A module that no longer exists is skipped, as the
tracer's import hook skips it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "trace" / "sitecustomize.py"

#: Modules the tracer still names although the program dropped them.
GONE_MODULES = {"repro.resilience.wal"}

SCRIPT = r"""
import importlib
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)


class NoopTracer:
    def wrap(self, fn, name, extra=None):
        return fn

    def wrap_handler(self, cls, name):
        cls.handle_one_request, cls.parse_request


patched, skipped = [], []
for module_name, patch in tracer_module._patches(NoopTracer()).items():
    if importlib.util.find_spec(module_name) is None:
        skipped.append(module_name)
        continue
    patch(importlib.import_module(module_name))
    patched.append(module_name)
print(json.dumps({"patched": patched, "skipped": skipped}))
"""


def test_every_traced_name_exists():
    env = {key: value for key, value in os.environ.items() if key != "PERFBENCH_SPANS_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TRACER)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(report["skipped"]) <= GONE_MODULES, report["skipped"]
    assert {"repro.core.bucket", "repro.core.frequency"} <= set(report["patched"])
