"""The benchmark's tracer must find every name it wraps in the library.

``bench/tracing.py`` replaces module attributes by name; a library change
that drops or renames one would make ``bench/run.py --trace 1`` fail at
``Tracer.install``. The tracer is imported by path, as the benchmark does
not ship as a package.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(tracing):
    for _, home, attr, callers in tracing._KERNELS:
        assert callable(getattr(tracing._MODULES[home], attr))
        for caller in callers:
            assert hasattr(tracing._MODULES[caller], attr), f"{caller}.{attr}"
    for _, home, attr in tracing._SPANS:
        assert callable(getattr(tracing._MODULES[home], attr)), f"{home}.{attr}"


def test_install_then_uninstall_restores_originals(tracing):
    attrs = {(home, attr) for _, home, attr in tracing._SPANS}
    for _, _, attr, callers in tracing._KERNELS:
        attrs.update((caller, attr) for caller in callers)
    before = {key: getattr(tracing._MODULES[key[0]], key[1]) for key in attrs}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [
            key
            for key in attrs
            if getattr(tracing._MODULES[key[0]], key[1]) is not before[key]
        ]
    finally:
        tracer.uninstall()
    assert sorted(wrapped) == sorted(attrs)
    for key, original in before.items():
        assert getattr(tracing._MODULES[key[0]], key[1]) is original, key
