"""The mutation table in tools/mutants.py must stay applicable to the code.

Each row's edit must find its old text once, and each test it names must
exist; otherwise a rerun reports an error instead of a verdict. These tests
read the table and the files only: they run no mutant.
"""
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_table():
    spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_table()


def test_old_text_occurs_once_and_the_edit_changes_it():
    bad = [m.name for m in MUTANTS
           if (ROOT / m.file).read_text().count(m.old) != 1 or m.new == m.old]
    assert bad == []


def test_each_named_test_exists():
    missing = []
    for test_id in {t for m in MUTANTS for t in m.tests}:
        file, *scopes, name = test_id.split("[")[0].split("::")
        path = ROOT / file
        source = path.read_text() if path.is_file() else ""
        if not (re.search(rf"^\s*def {name}\(", source, re.M)
                and all(re.search(rf"^class {cls}\b", source, re.M) for cls in scopes)):
            missing.append(test_id)
    assert sorted(missing) == []
