"""Export gate: every name a module lists in ``__all__`` exists in it.

A deletion that leaves its name behind in a package's ``__all__`` breaks
``from package import *`` and documents a feature that is gone.
"""

from tests.test_docstrings import _public_modules


def test_every_exported_name_is_defined():
    stale = [
        f"{module.__name__}.{name}"
        for module in _public_modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not stale, f"__all__ names the module does not define: {stale}"
