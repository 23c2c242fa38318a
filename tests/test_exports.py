import importlib
import pkgutil

import bf16emu


def test_every_exported_name_resolves():
    names = ["bf16emu"] + [f"bf16emu.{m.name}"
                           for m in pkgutil.iter_modules(bf16emu.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert not missing, f"__all__ names without a definition: {missing}"
