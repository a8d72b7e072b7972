"""The benchmark's traced run wraps the functions named in ``SPANS`` of
``bench/tracing.py``; a name that no longer resolves breaks that run, so it
fails here first.  The table is read from the file, not copied."""

import importlib
import importlib.util
import os

import pytest

from colorder.refuter import BUNDLED_STRATEGIES, SubprocessStrategy

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_spans() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_resolves(name):
    """Each span names a module function, or a method defined on its class
    itself (the tracer wraps ``cls.__dict__[attr]``); ``*.answer`` names
    the ``answer`` of every bundled strategy and of ``prog:`` strategies."""
    modname, path = SPANS[name]
    module = importlib.import_module(modname)
    owner, _, attr = path.rpartition(".")
    if owner == "*":
        classes = (*BUNDLED_STRATEGIES.values(), SubprocessStrategy)
    elif owner:
        classes = (getattr(module, owner),)
    else:
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
        return
    for cls in classes:
        assert callable(vars(cls).get(attr)), f"{modname}.{cls.__name__}.{attr}"
