"""The code rules of src/kbvqa: what importing a module loads, four rules
read from the source with ast, and the help of every subcommand.

Each ast rule is a function of {file name: source text} that returns its
violations, so it runs on the package's own source and on a planted
violation that it must reject.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kbvqa import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src" / "kbvqa").glob("*.py"))}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# This checkout's src/ first on the path, and no BLAS thread count set.
SRC_ENV = {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS},
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)


# -- what an import loads ---------------------------------------------------


def test_importing_cli_loads_no_late_module_and_sets_no_blas_thread_count():
    """Only cli.main sets a BLAS thread count, for the commands that load
    numpy. The modules that prompt, call a backend, mine or score, and
    concurrent.futures, load only for the commands that run them."""
    late = ("numpy", "subprocess", "shlex", "kbvqa.prompts", "kbvqa.pipeline",
            "kbvqa.backend", "kbvqa.mining", "kbvqa.metrics", "concurrent.futures")
    proc = _python("-c", f"import os, sys, kbvqa.cli; "
                   f"print([m for m in {late!r} if m in sys.modules], "
                   f"[v for v in {BLAS_THREAD_VARS!r} if v in os.environ])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def test_scoring_and_mining_load_no_backend():
    """The modules that score and mine make no backend call."""
    proc = _python("-c", "import sys, kbvqa.metrics, kbvqa.mining; "
                   "print([m for m in ('kbvqa.backend', 'kbvqa.transport') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- rules read with ast ----------------------------------------------------


def leaf_layer_violations(sources: dict[str, str]) -> list[str]:
    """records.py imports no kbvqa module but errors, and no module takes a
    name records.py defines from kb. ast sees every import statement, those
    inside functions too."""
    records = ast.parse(sources["records.py"])
    defined = {node.name for node in records.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in records.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    bad = []
    for node in ast.walk(records):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            modules = (["kbvqa." + node.module] if node.module
                       else ["kbvqa." + alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        bad += [f"records.py:{node.lineno} imports {module}" for module in modules
                if module.split(".")[0] == "kbvqa" and module != "kbvqa.errors"]
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level, node.module) == (1, "kb") or node.module == "kbvqa.kb"):
                names = sorted({alias.name for alias in node.names} & defined)
                bad += [f"{name}:{node.lineno} imports {names} from kb"] if names else []
    return bad


def stat_identity_violations(sources: dict[str, str]) -> list[str]:
    """records.stat_identity, FileDigest and identity_holds say when a
    recorded digest still holds; a module that read a file's inode or
    timestamps itself would be a second copy of that rule."""
    fields = {"st_mtime_ns", "st_ctime_ns", "st_ino"}
    return [f"{name}:{node.lineno} reads {node.attr}"
            for name, text in sources.items() if name != "records.py"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and node.attr in fields]


def to_json_dict_violations(sources: dict[str, str]) -> list[str]:
    """records.to_record writes every record from its class's fields; a
    to_json_dict on a class would be a second copy of its format."""
    bad = []
    for name, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                bad += [f"{name}:{node.lineno} {cls.name} defines to_json_dict"
                        for defined in names if defined == "to_json_dict"]
    return bad


def unused_import_violations(sources: dict[str, str]) -> list[str]:
    """A name is used when it appears anywhere in the module, so this
    catches what a refactor leaves behind, not a shadowed import.
    __init__.py imports to re-export."""
    bad = []
    for name, text in sources.items():
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bad += [f"{name}:{node.lineno} imports {imported} and never uses it"
                    for imported in names if imported not in used]
    return bad


RULES = [leaf_layer_violations, stat_identity_violations, to_json_dict_violations,
         unused_import_violations]

# For each rule, a small source tree that breaks it once, and what the rule reports.
PLANTED = {
    leaf_layer_violations: (
        {"records.py": "from .kb import Query\n\ndef read(): return Query\n"},
        ["records.py:1 imports kbvqa.kb"],
    ),
    stat_identity_violations: (
        {"records.py": "", "kb.py": "import os\n\ndef f(p):\n    return os.stat(p).st_ino\n"},
        ["kb.py:4 reads st_ino"],
    ),
    to_json_dict_violations: (
        {"records.py": "", "metrics.py": "class Report:\n    def to_json_dict(self):\n"
                                         "        return {}\n"},
        ["metrics.py:2 Report defines to_json_dict"],
    ),
    unused_import_violations: (
        {"records.py": "", "cli.py": "import json\nfrom collections import defaultdict\n"
                                     "\nprint(json)\n"},
        ["cli.py:2 imports defaultdict and never uses it"],
    ),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_package_keeps_the_rule(rule):
    assert rule(SOURCES) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_rule_rejects_a_planted_violation(rule):
    sources, expected = PLANTED[rule]
    assert rule(sources) == expected


def test_leaf_layer_rejects_a_records_name_taken_from_kb():
    sources = {"records.py": "def read_jsonl(): pass\n",
               "cli.py": "from .kb import read_jsonl, Query\n"}
    assert leaf_layer_violations(sources) == ["cli.py:1 imports ['read_jsonl'] from kb"]


# -- help -------------------------------------------------------------------


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_exits_zero(command, capsys):
    """kbvqa --help and the help of every subcommand in COMMANDS, so a new one is covered too."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kbvqa")


def test_every_name_the_traced_benchmark_wraps_is_bound(tmp_path):
    """The traced benchmark wraps functions by name before cli.main runs; a
    name a refactor unbinds stops it before the help prints."""
    proc = _python(str(ROOT / "perfbench" / "traced_cli.py"), str(tmp_path / "spans.json"),
                   "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: kbvqa")
