import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelab


def test_every_exported_name_is_its_home_module_attribute():
    for name in gatelab.__all__:
        home = importlib.import_module(f"gatelab.{gatelab._HOME[name]}")
        assert getattr(gatelab, name) is getattr(home, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gatelab import *", namespace)
    for name in gatelab.__all__:
        assert namespace[name] is getattr(gatelab, name), name


def test_importing_the_package_loads_no_numpy():
    code = "import sys, gatelab; print('numpy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gatelab.no_such_name
    assert not hasattr(gatelab, "no_such_name")
