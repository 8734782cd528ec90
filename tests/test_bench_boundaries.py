"""The benchmark tracer's boundaries still resolve in the engine and still record.

perfbench/tracer.py wraps module functions and class attributes by name.  A
rename, or an alphabet entry that captured an operator's function object,
would leave a boundary without spans, and the benchmark's traced run would
report it missing.  The tracer is read from its file and executed here; no
file under perfbench/ is written.
"""

import inspect
import types
from pathlib import Path

import bqt
import bqt.cli  # the tracer wraps cli.main, so the module must be loaded
from bqt.lspaces import FLAVORED_ALPHABET
from bqt.polyrep import WORD_ALPHABET, PolyRealization, PolyVector, apply_word
from bqt.scalars import ONE

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
tracer = types.ModuleType("perfbench_tracer")
tracer.__file__ = str(_PATH)
exec(compile(_PATH.read_text(), str(_PATH), "exec"), tracer.__dict__)


def _owner(owner: str):
    mod_name, _, cls_name = owner.partition(".")
    mod = getattr(bqt, mod_name)
    return (mod, None) if not cls_name else (mod, getattr(mod, cls_name))


def test_every_boundary_resolves_where_install_looks():
    for name, owner, attr, _ in tracer.BOUNDARIES:
        mod, cls = _owner(owner)
        if cls is not None:
            assert attr in cls.__dict__, f"{name}: {owner}.{attr} not in the class's own dict"
        else:
            assert inspect.isfunction(getattr(mod, attr, None)), f"{name}: no function {attr}"


def test_word_letters_record_on_their_boundaries():
    M = PolyRealization(2)
    x1 = PolyVector.monomial(2, (1, 0), ONE)
    cases = [
        ("polyrep.apply_Y", x1, (("Y", 1),), WORD_ALPHABET),
        ("polyrep.apply_epsilon", x1, (("Eps", 0),), WORD_ALPHABET),
        ("lspaces.z", x1, (("z", 1, 1),), FLAVORED_ALPHABET),
        ("lspaces.dplus", M.one(), (("dplus", 0),), FLAVORED_ALPHABET),
        ("lspaces.dminus", x1, (("dminus", 1),), FLAVORED_ALPHABET),
        ("lspaces.phi", x1, (("phi", 1),), FLAVORED_ALPHABET),
    ]
    tr = tracer.Tracer()
    tr.install(bqt)
    recorded = {}
    try:
        for name, v, word, alphabet in cases:
            before = tr.stats[name].calls
            apply_word(M, v, word, alphabet)
            recorded[name] = tr.stats[name].calls - before
    finally:
        tr.remove()
    assert recorded == {name: 1 for name, *_ in cases}
    assert tracer.wrappers_left() == []
