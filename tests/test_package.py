import ast
import re
from pathlib import Path

import shapelift
from shapelift import mapping, subspace

README = Path(shapelift.__file__).resolve().parents[2] / "README.md"


def test_all_is_sorted_and_unique():
    names = shapelift.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from shapelift import *", namespace)
    missing = [name for name in shapelift.__all__ if name not in namespace]
    assert not missing


def _file_writes(module: Path):
    """(function, call) for each call in ``module`` that may write a file:
    ``open`` in a mode that is not plainly read-only, and ``write_bytes`` or
    ``write_text``."""

    def mode_writes(call: ast.Call) -> bool:
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        if mode is None:
            return False
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(flag in mode.value for flag in "wax+")
        return True  # a mode the source does not spell out may write

    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open" and mode_writes(child):
                    found.append((function, "open"))
                elif name in ("write_bytes", "write_text"):
                    found.append((function, name))
            visit(child, function)

    visit(ast.parse(module.read_text(), str(module)), None)
    return found


def test_one_write_rule():
    # Every file, dataset samples included, goes through _fileio.atomic_open.
    allowed = {("_fileio", "atomic_open", "open")}
    found = set()
    for module in sorted(Path(shapelift.__file__).parent.glob("*.py")):
        found |= {(module.stem, function, call) for function, call in _file_writes(module)}
    assert found == allowed


def test_one_clock_rule():
    # Library results are values; only the CLI's text summaries read a clock.
    found = set()
    for module in sorted(Path(shapelift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found |= {(module.stem, name.partition(".")[0]) for name in names
                      if name.partition(".")[0] in ("time", "datetime")}
    assert {module for module, _ in found} <= {"cli"}, sorted(found)


def test_readme_states_the_format_versions():
    # The version each format entry names is the one its writer writes, and
    # the container paragraph lists the versions each reader takes.
    text = README.read_text(encoding="utf-8")
    for ext, version in ((".ssm", subspace.SSM_FORMAT_VERSION),
                         (".map", mapping.MAP_FORMAT_VERSION)):
        stated = re.findall(rf"\*\*\{ext}\*\* — [^,]+, format version (\d+)", text)
        assert stated == [str(version)], (ext, stated)
    readers = re.search(r"a `\.ssm`\s+reader takes versions?\s+(.+?),\s+a `\.map`\s+"
                        r"reader (?:takes )?versions?\s+(.+?),\s+and any other", text, re.S)
    assert readers, "the container paragraph lists no readable versions"
    ssm, map_ = ([int(v) for v in re.findall(r"\d+", group)] for group in readers.groups())
    assert ssm == sorted(subspace._SSM_FORMAT[1]) and max(ssm) == subspace.SSM_FORMAT_VERSION
    assert map_ == sorted(mapping._MAP_FORMAT[1]) and max(map_) == mapping.MAP_FORMAT_VERSION
