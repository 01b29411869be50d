"""The public API holds only what the package itself uses.

Every name exported through ``mnar_dre.__all__`` must be loaded somewhere in
the package's own modules (``__init__.py`` aside), or be listed below with the
reason it is public anyway.  A name that only tests reach belongs in the
tests, not in the package.
"""

import ast
import inspect
from pathlib import Path

import mnar_dre

PACKAGE_DIR = Path(mnar_dre.__file__).parent

# Exported names no package module loads, each with why it stays public.
ALLOWED_UNUSED: dict[str, str] = {}


def _loaded_names() -> set[str]:
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _exported() -> list[str]:
    return [
        name
        for name in mnar_dre.__all__
        if not inspect.ismodule(getattr(mnar_dre, name))
    ]


def test_every_export_is_used_by_the_package_or_allowed():
    loaded = _loaded_names()
    unused = [n for n in _exported() if n not in loaded and n not in ALLOWED_UNUSED]
    assert unused == [], f"exported but only reachable from outside the package: {unused}"


def test_allow_list_names_exist_and_are_unused():
    # A stale entry would hide a future regression under its name.
    loaded = _loaded_names()
    exported = set(_exported())
    for name in ALLOWED_UNUSED:
        assert name in exported, f"{name} is allowed but not exported"
        assert name not in loaded, f"{name} is used by the package; drop it from the list"


def test_no_module_imports_scipy_optimize():
    # Every fit runs on optimize.newton; a second solver would bring a second
    # objective interface and its own stopping rule back with it.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                # "from scipy import optimize" reads as scipy.optimize.
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name == "scipy.optimize" or name.startswith("scipy.optimize.")
            ]
    assert offenders == [], f"modules importing scipy.optimize: {offenders}"


def test_only_model_defines_exception_classes():
    # The CLI maps ConfigError, DataError and NumericError, all in model.py,
    # to exit codes 2, 3 and 4; an error class defined elsewhere would need
    # its own mapping, or escape as a traceback.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [getattr(b, "id", getattr(b, "attr", "")) for b in node.bases]
            if any(b.endswith(("Error", "Exception")) for b in bases):
                offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert offenders == [], f"exception classes outside model.py: {offenders}"


def test_classification_names_no_concrete_ratio_model():
    # A classifier scores through its model's log_ratio alone, so the fitted
    # models and a scenario's true ratio all classify alike; naming a model
    # class here would bring a type switch back.
    concrete = {"LogLinearRatioModel", "NaiveBayesRatioModel"}
    offenders = []
    for name in ("np_classify.py", "experiments.py"):
        path = PACKAGE_DIR / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = {alias.name.rpartition(".")[2] for alias in node.names}
            else:
                continue
            offenders += [f"{name}:{node.lineno} {n}" for n in sorted(found & concrete)]
    assert offenders == [], f"concrete ratio-model classes named: {offenders}"
