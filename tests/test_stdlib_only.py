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


def test_verify_sweeps_only_in_run_claim():
    # run_claim counts each claim part's declared group by the route the part
    # names, looked up by that name; it makes the one route call in verify,
    # nothing calls a route by name, and the runners only check the counters
    # that the route hands them
    from coxdrops.verify import CLAIMS
    routes = {part.route for parts in CLAIMS.values() for part in parts}
    assert routes == {"sweep", "quotient"}
    tree = ast.parse((SRC / "coxdrops" / "verify.py").read_text())
    run_claim = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "run_claim")

    def calls(root, names):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]

    assert calls(tree, routes) == []
    (call,) = calls(tree, {"route"})
    assert calls(run_claim, {"route"}) == [call]
    assert "globals()[part.route]" in ast.unparse(run_claim)


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: a best-effort syntax
    # guard (it rejects grammar such as except*, not newer library calls)
    for path in sorted((SRC / "coxdrops").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
