import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_postprocess_submodule_not_shadowed():
    import layermet.postprocess as m

    assert isinstance(m, types.ModuleType)
    assert m is importlib.import_module("layermet.postprocess")


def test_package_does_not_import_scipy():
    # The runtime dependency is numpy only, even where scipy is installed.
    code = (
        "import sys, layermet, layermet.cli, layermet.nnet\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
