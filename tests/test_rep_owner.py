"""One path from data to a representation: no function under ``src/``
other than ``tworep.rep_from_json`` calls ``TwoRep(``, and the except
clauses of ``cli._load_rep`` name no built-in exception type other than
``OSError``, ``json.JSONDecodeError`` and ``RecursionError``.

Every malformed input reaches the CLI as ``tworep.InputError``, so the CLI
needs no list of the library's internal exceptions.
"""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
CLI = ROOT / "src" / "sl2prod" / "cli.py"
DECODER = {"OSError", "json.JSONDecodeError", "RecursionError"}


def rep_constructors(source, module):
    """The qualified names of the functions (``module`` for module level)
    whose own bodies call ``TwoRep``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and (getattr(child.func, "id", None) == "TwoRep"
                         or getattr(child.func, "attr", None) == "TwoRep")):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def caught_builtins(source, function):
    """The built-in exception types the except clauses of ``function``
    name, spelled as in the source; a bare ``except:`` counts as
    ``BaseException``."""
    fn, = [node for node in ast.walk(ast.parse(source))
           if isinstance(node, ast.FunctionDef) and node.name == function]
    names = []
    for handler in ast.walk(fn):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        if handler.type is None:
            names.append("BaseException")
            continue
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        names += [ast.unparse(t) for t in types]
    return [n for n in names if n in DECODER or (
        isinstance(getattr(builtins, n, None), type)
        and issubclass(getattr(builtins, n), BaseException))]


def test_finds_rep_constructors():
    source = ("def make():\n"
              "    return TwoRep(A, E, x, tau)\n\n"
              "class Loader:\n"
              "    def load(self):\n"
              "        def inner():\n"
              "            return tworep.TwoRep(*args)\n"
              "        return inner()\n\n"
              "REP = TwoRep(A, E, x, tau)\n")
    assert rep_constructors(source, "m") == [
        "m.make", "m.Loader.load.inner", "m"]


def test_finds_caught_builtins():
    source = ("def load():\n"
              "    try:\n"
              "        pass\n"
              "    except (KeyError, json.JSONDecodeError) as e:\n"
              "        pass\n"
              "    except InputError:\n"
              "        pass\n"
              "    except:\n"
              "        pass\n")
    assert caught_builtins(source, "load") == [
        "KeyError", "json.JSONDecodeError", "BaseException"]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_rep_from_json_builds_a_rep(path):
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    found = rep_constructors(path.read_text(encoding="utf-8"), module)
    assert set(found) <= {"sl2prod.tworep.rep_from_json"}


def test_load_rep_catches_only_decoder_errors():
    caught = caught_builtins(CLI.read_text(encoding="utf-8"), "_load_rep")
    assert set(caught) <= DECODER
