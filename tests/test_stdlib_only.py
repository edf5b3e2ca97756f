"""The engine depends on nothing outside the Python standard library."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "credalplp"


def test_engine_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "credalplp" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []


def test_the_oracle_imports_no_engine_module():
    """``oracle`` is what the engine is checked against, so it runs no engine
    code: it imports ``grounding``, and no ``models``, ``inference``, ``cli``
    or ``bayesnet`` in any form (``from . import models``, ``from .models
    import ...``, ``import credalplp.models``)."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
    parts = {part for name in names for part in name.split(".")}
    assert "grounding" in parts and not parts & {"models", "inference", "cli", "bayesnet"}


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each CLI run starts with ``import credalplp.cli``, and these two would
    be about half of it. Only the modules that the import itself adds
    count, so a site hook that loaded them first cannot fail this."""
    code = (
        "import sys; before = set(sys.modules); import credalplp.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
