"""Every name a cpdtlab module lists in __all__ resolves, and so does every
function the benchmark's tracer wraps."""

import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cpdtlab
from cpdtlab.cpdt import full_sweep

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(cpdtlab.__path__)])
def test_star_import_resolves(module):
    # A star import raises AttributeError for a name in __all__ the module lacks.
    exec(f"from cpdtlab.{module} import *", {})


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded from its file under a private module name."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracer):
    # The tracer wraps each function where its caller looks it up; a rename
    # under src/ would otherwise surface only in the benchmark.
    missing = [name for owner, attr, name, _probe in tracer.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_sweep_runs_through_the_traced_layers(tracer):
    # The sweep reads its sources off the scorer's direct-curve pass: the
    # plane and each reconstruction are forward-transformed, and the plain
    # codec chain and the plain inverse transform stay off its path.
    plane = np.arange(16 * 12, dtype=np.uint8).reshape(16, 12)
    spans = tracer.Tracer()
    spans.install()
    try:
        full_sweep(plane, [30], [30])
    finally:
        spans.uninstall()
    seen = {span[0] for span in spans.spans}
    assert "transform.forward" in seen
    assert not seen & {"codec.encode_plane", "codec.decode_plane", "codec.estimate_rate",
                       "codec.psnr", "transform.inverse"}
