"""The package's public names: one list per module, and each one used.

``pesinlab.__all__`` is the concatenation of its modules' ``__all__`` lists.
A public name must be reached from somewhere other than its own definition
and those lists: the library, the benchmark, the README or the acceptance
tests.  So must every public method or property of a class in those lists.
A name that only its own unit tests call belongs to no public surface.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pesinlab

_ROOT = Path(__file__).resolve().parents[1]


def _modules_with_all():
    for info in pkgutil.iter_modules(pesinlab.__path__):
        mod = importlib.import_module(f"pesinlab.{info.name}")
        if hasattr(mod, "__all__"):
            yield mod


def test_package_all_is_the_modules_lists():
    names = []
    for mod in _modules_with_all():
        for name in mod.__all__:
            assert getattr(pesinlab, name) is getattr(mod, name), (mod.__name__, name)
        names += mod.__all__
    assert len(set(names)) == len(names)
    assert sorted(pesinlab.__all__) == sorted(names)


def _callers_text():
    """Every source that may use a public name, without the definitions'
    own ``def``/``class`` lines and ``__all__`` lists."""
    files = [p for p in (_ROOT / "src" / "pesinlab").glob("*.py") if p.name != "__init__.py"]
    files += sorted((_ROOT / "benchmarks").glob("*.py"))
    files += [_ROOT / "README.md", _ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text() for p in files)
    text = re.sub(r"__all__ = \[.*?\]", "", text, flags=re.S)
    return re.sub(r"^\s*(def|class) \w+", "", text, flags=re.M)


def test_every_public_name_has_a_caller():
    text = _callers_text()
    unused = [name for name in pesinlab.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"public names that nothing but their tests reaches: {unused}"


def test_every_public_member_has_a_caller():
    # a member is reached as an attribute (``.name``) or by its name in quotes
    # (``getattr(m, "step_many")``, the benchmark's patch table)
    text = _callers_text()
    unused = []
    for name in pesinlab.__all__:
        cls = getattr(pesinlab, name)
        if not isinstance(cls, type):
            continue
        for attr, value in vars(cls).items():
            member = callable(value) or isinstance(value, (property, classmethod))
            if attr.startswith("_") or not member:
                continue
            if not re.search(rf"\.{attr}\b|[\"']{attr}[\"']", text):
                unused.append(f"{name}.{attr}")
    assert not unused, f"public members that nothing but their tests reaches: {unused}"
