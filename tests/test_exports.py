"""Every dsdprior module exports only names it defines: each ``__all__``
entry resolves and ``from dsdprior.<module> import *`` succeeds, so a
name deleted from a module cannot stay behind in its exports."""

import importlib
import pkgutil

import pytest

import dsdprior

MODULES = sorted(info.name for info in pkgutil.iter_modules(dsdprior.__path__))


def test_every_module_is_listed():
    assert {"cli", "elicit", "priors", "qf", "specfun", "structure"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(f"dsdprior.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from dsdprior.{name} import *", {})
