"""The benchmark tracer's hooks into the package.

``benchmarks/tracing.py`` finds each traced function by name, so renaming
or deleting one of them breaks ``Tracer.install``; this test fails on such
an edit.  It also checks that ``uninstall`` restores every binding that
``install`` replaced.
"""

import sys
from pathlib import Path

import aimnu.cli  # loads every module the tracer rebinds

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
sys.path.insert(0, BENCHMARKS)
import tracing  # noqa: E402

sys.path.remove(BENCHMARKS)


def _bindings():
    """Every binding the tracer may replace, keyed by where it lives."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "aimnu" or mod_name.startswith("aimnu.")):
            continue
        for key, value in vars(module).items():
            out[mod_name, key] = value
            if type(value) is dict:
                for k, v in value.items():
                    out[mod_name, key, k] = v
    for _, mod_name, cls_name, _, _ in tracing.TARGETS:
        if cls_name is not None:
            cls = getattr(sys.modules[mod_name], cls_name)
            out.update(((mod_name, cls_name, k), v) for k, v in vars(cls).items())
    for cmd in tracing.CLI_COMMANDS:
        out["cli", cmd] = aimnu.cli.main.commands[cmd].callback
    return out


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _, mod_name, cls_name, attr, _ in tracing.TARGETS:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            assert hasattr(getattr(owner, attr), "__wrapped__"), (mod_name, cls_name, attr)
        for cmd in tracing.CLI_COMMANDS:
            assert hasattr(aimnu.cli.main.commands[cmd].callback, "__wrapped__")
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
