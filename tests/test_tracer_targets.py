"""The perfbench tracer patches program functions by name; every name must resolve.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry where its callers look
it up.  A rename or deletion in ``src/`` that leaves a stale entry makes the
traced benchmark fail on entry, so the check lives in tier-1 too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # perfbench is not a package; load the module by path, off sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed(targets):
    """The object each target name currently resolves to, in order."""
    found = []
    for module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        found.append(owner.__dict__[attr])
    return found


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    before = _installed(tracing.TARGETS)
    with tracing.Tracer():
        during = _installed(tracing.TARGETS)
    after = _installed(tracing.TARGETS)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
