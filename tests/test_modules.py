"""Every name a cpdtlab module lists in __all__ resolves."""

import pkgutil

import pytest

import cpdtlab


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(cpdtlab.__path__)])
def test_star_import_resolves(module):
    # A star import raises AttributeError for a name in __all__ the module lacks.
    exec(f"from cpdtlab.{module} import *", {})
