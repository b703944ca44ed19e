import importlib
import pkgutil

import rdbounds


def layer_exports():
    """Name -> defining module, over every rdbounds module that declares __all__."""
    out = {}
    for info in pkgutil.iter_modules(rdbounds.__path__):
        module = importlib.import_module(f"rdbounds.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name not in out, f"{name} exported by two layers"
            out[name] = module
    return out


def test_package_exports_exactly_the_layer_exports():
    layers = layer_exports()
    assert len(rdbounds.__all__) == len(set(rdbounds.__all__))
    assert set(rdbounds.__all__) == set(layers)
    for name, module in layers.items():
        assert getattr(rdbounds, name) is getattr(module, name)
