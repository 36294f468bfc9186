"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import diskmaps


def test_every_exported_name_resolves():
    modules = [diskmaps] + [importlib.import_module(f"diskmaps.{info.name}")
                            for info in pkgutil.iter_modules(diskmaps.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
