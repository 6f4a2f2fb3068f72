import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from layermet.nnet.io import save_model
from layermet.nnet.models import build_segmenter

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(code: str, *args: str) -> str:
    """Run `code` in a fresh interpreter that imports layermet from SRC; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_postprocess_submodule_not_shadowed():
    import layermet.postprocess as m

    assert isinstance(m, types.ModuleType)
    assert m is importlib.import_module("layermet.postprocess")


def test_package_does_not_import_scipy():
    # The runtime dependency is numpy only, even where scipy is installed.
    code = (
        "import importlib, pkgutil, sys, layermet\n"
        "names = [m.name for m in pkgutil.walk_packages(layermet.__path__, 'layermet.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(*names)\n"
    )
    walked = set(_run_python(code).split())
    files = (SRC / "layermet").rglob("*.py")
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__") for path in files}
    assert walked == modules - {"layermet"}


# Runs each command through cli.main and prints, per command, its exit code and
# the layermet.nnet submodules loaded so far; help text goes to stderr.
_COMMANDS = """
import contextlib, json, sys
from layermet.cli import main

work = sys.argv[1]
data = work + "/data"
for argv in (
    ["synth", "--n", "2", "--out", data, "--width", "48", "--height", "32", "--thickness", "4:8", "--quiet"],
    ["measure", "--mask", data + "/mask_0000.pgm", "--json", work + "/r.json", "--quiet"],
    ["eval", "--pred-dir", data, "--truth-dir", data, "--quiet"],
    ["--help"],
    ["segment", "--model", work + "/seg.lmet", "--image", data + "/img_0000.pgm", "--out", work + "/s.pgm", "--quiet"],
):
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    print(json.dumps([argv[0], code, sorted(m for m in sys.modules if m.startswith("layermet.nnet."))]))
"""


def test_commands_load_only_the_nets_they_run(tmp_path):
    model = build_segmenter(seed=0)
    model.layers[-1].bias[:] = (-100.0, 100.0)  # the layer class wins everywhere
    (tmp_path / "seg.lmet").write_bytes(save_model(model))
    runs = [json.loads(line) for line in _run_python(_COMMANDS, str(tmp_path)).splitlines()]
    assert [run[:2] for run in runs] == [["synth", 0], ["measure", 0], ["eval", 0], ["--help", 0], ["segment", 0]]
    assert [run[2] for run in runs[:4]] == [[]] * 4
    assert runs[4][2] == ["layermet.nnet.io", "layermet.nnet.layers", "layermet.nnet.models"]
