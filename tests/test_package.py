import importlib
import pkgutil

import dyadeval


def test_every_exported_name_resolves():
    # a name dropped from a module but left in an __all__ would linger here
    modules = [dyadeval] + [importlib.import_module(f"dyadeval.{info.name}")
                            for info in pkgutil.iter_modules(dyadeval.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), module.__name__
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}"
    assert set(dyadeval.__all__) <= set(dir(dyadeval))
