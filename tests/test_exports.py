"""Every ``__all__`` in the ``repro`` packages is a clean export list."""

import importlib
import pkgutil

import repro


def test_every_all_has_no_duplicates_and_every_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # Entry points run their command line on import.
        if not info.name.endswith(".__main__")
    ]
    problems = {}
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        duplicates = sorted({item for item in exported if exported.count(item) > 1})
        missing = [item for item in exported if not hasattr(module, item)]
        if duplicates or missing:
            problems[name] = {"duplicates": duplicates, "missing": missing}
    assert problems == {}
