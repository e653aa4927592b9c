"""The package loads its submodules on first use.

The checks that depend on what a process has imported run in a fresh
interpreter, because this one has loaded every module already.
"""

import inspect
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ordcore

SRC = str(Path(ordcore.__file__).resolve().parents[1])


def fresh_python(*args, **kw):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kw
    )


def loaded_modules(*args, **kw):
    """The ordcore modules a fresh `python -X importtime ...` imports, with
    the finished process."""
    proc = fresh_python("-X", "importtime", *args, **kw)
    names = set(re.findall(r"^import time:.*\|\s*(ordcore[\w.]*)\s*$", proc.stderr, re.M))
    return names, proc


def test_import_loads_only_the_kernels():
    names, proc = loaded_modules("-c", "import ordcore\nfrom ordcore import _kernels\n_kernels.backend()")
    assert proc.returncode == 0, proc.stderr
    assert names == {"ordcore", "ordcore._kernels"}, names


def test_graph_command_skips_reduction_modules(tmp_path):
    path = tmp_path / "p3.og"
    path.write_text("og 3 2\n0 1\n1 2\n")
    names, proc = loaded_modules("-m", "ordcore.cli", "retract", str(path), "--keep", "0,2")
    assert (proc.returncode, proc.stdout) == (1, "NONE\n")
    assert "ordcore.retraction" in names
    assert not names & {"ordcore.gadgets", "ordcore.hypergraphs", "ordcore.matchings"}


def test_gadget_error_exit_2_in_a_fresh_interpreter(tmp_path):
    # gadgets is imported only inside gen-gadget, after the CLI has started
    path = tmp_path / "one.x13"
    path.write_text("x13 3 1\n0 1 2\n")
    proc = fresh_python("-m", "ordcore.cli", "gen-gadget", "x13-hyper", str(path), "--k", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: uniformity below 3 has no room for the construction\n"


def test_every_public_name_is_its_submodule_object():
    for name in ordcore.__all__:
        mod = import_module(f"ordcore.{ordcore._SUBMODULE[name]}")
        obj = getattr(ordcore, name)
        assert obj is getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name


def test_star_import_and_dir_list_every_public_name():
    ns = {}
    exec("from ordcore import *", ns)
    assert set(ns) - {"__builtins__"} == set(ordcore.__all__)
    assert all(ns[name] is getattr(ordcore, name) for name in ordcore.__all__)
    assert set(ordcore.__all__) <= set(dir(ordcore))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordcore.no_such_name
    assert not hasattr(ordcore, "no_such_name")
    with pytest.raises(ImportError):
        exec("from ordcore import no_such_name", {})
