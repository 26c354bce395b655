"""The README's Python examples run as written, its JSON input files are
accepted by their subcommands, and the code it names exists."""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import optinfo
from optinfo.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
INLINE_CODE = re.findall(r"`([^`\n]+)`", README.read_text())


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_json_input_files_accepted(tmp_path, capsys):
    # A document with "states" is a `discrete --problem` file; one with
    # "prior_cov" a `regression --config` file.
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    commands = []
    for k, block in enumerate(blocks):
        doc = json.loads(block)
        command, flag = ("discrete", "--problem") if "states" in doc else ("regression", "--config")
        path = tmp_path / f"input_{k}.json"
        path.write_text(block)
        code = main([command, flag, str(path)])
        assert code == EXIT_OK, f"README {command} example exits {code}: {capsys.readouterr().err}"
        commands.append(command)
    assert sorted(commands) == ["discrete", "regression"]


def test_named_library_objects_exist():
    # `decisions.posterior_table`, `optinfo.pde` and the like: a dotted
    # name whose first part (after an optional `optinfo.`) is a module of
    # the package must resolve attribute by attribute.
    modules = {info.name for info in pkgutil.iter_modules(optinfo.__path__)}
    checked = []
    for ref in INLINE_CODE:
        if not re.fullmatch(r"\w+(\.\w+)+", ref):
            continue
        parts = ref.split(".")
        if parts[0] == "optinfo":
            parts = parts[1:]
        if parts[0] not in modules:
            continue
        obj = importlib.import_module(f"optinfo.{parts[0]}")
        for name in parts[1:]:
            assert hasattr(obj, name), f"README names `{ref}`, which does not exist"
            obj = getattr(obj, name)
        checked.append(ref)
    assert "decisions.posterior_table" in checked


def _defines(body, path):
    """True if the ast body defines the class/function chain ``path``."""
    if not path:
        return True
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == path[0]:
            return _defines(node.body, path[1:])
    return False


def test_cited_test_ids_exist():
    ids = [ref for ref in INLINE_CODE if re.fullmatch(r"tests/[\w/]+\.py(::\w+(\[.*\])?)+", ref)]
    assert ids
    for node_id in ids:
        file, *path = re.sub(r"\[.*\]$", "", node_id).split("::")
        source = ROOT / file
        assert source.is_file(), f"README cites `{node_id}`: no file {file}"
        tree = ast.parse(source.read_text())
        assert _defines(tree.body, path), f"README cites `{node_id}`, which is not a test"
