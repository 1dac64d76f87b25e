import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_only_the_standard_library():
    # a fresh interpreter, so modules the test run already loaded do not hide
    # a stray third-party import
    code = ("import sys; before = set(sys.modules); import coxdrops, coxdrops.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "coxdrops.cli" in loaded
    outside = [m for m in loaded if m.split(".")[0] != "coxdrops"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    # every module file is loaded, so none is left over
    modules = {m for m in loaded if m.startswith("coxdrops.")}
    files = {f"coxdrops.{p.stem}" for p in (SRC / "coxdrops").glob("*.py")
             if p.stem not in ("__init__", "__main__")}
    assert modules == files


def test_genpoly_sweeps_nothing():
    # its enumerators are transfers; the key hooks they are held to, and
    # every sweep, belong to verify
    from coxdrops import genpoly
    assert [f for f in vars(genpoly).values() if hasattr(f, "table_groups")] == []
    tree = ast.parse((SRC / "coxdrops" / "genpoly.py").read_text())
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "sweep" not in called and "_transfer" in called
