"""Import the gathersim package of a given source tree.

The corpus scripts load their trees through here, and the A/B scripts
compare two trees in one process.  load() imports one tree's gathersim,
with every gathersim module cleared from sys.modules first, together
with the benchmark's perfbench/corpus.py (of this checkout, which is
only read), so the corpus is built with that tree.
The modules it returns keep working after the next load() clears
sys.modules again.  outcome() words a run's check_all result the one way
both corpus scripts compare it.
"""

import importlib
import pathlib
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The benchmark's workloads, as perfbench/corpus.py names them.
WORKLOADS = ("large-n", "no-meet", "sweep-mix")


def load(src: str) -> SimpleNamespace:
    """Import the gathersim of src; return its corpus, checks, engine and
    render modules as attributes of one namespace."""
    for name in list(sys.modules):
        if name == "gathersim" or name.startswith("gathersim.") \
                or name == "corpus":
            del sys.modules[name]
    sys.path[:0] = [str(pathlib.Path(src).resolve()),
                    str(ROOT / "perfbench")]
    try:
        return SimpleNamespace(
            corpus=importlib.import_module("corpus"),
            checks=importlib.import_module("gathersim.checks"),
            engine=importlib.import_module("gathersim.engine"),
            render=importlib.import_module("gathersim.render"))
    finally:
        del sys.path[:2]


def outcome(tree, op, trace) -> str:
    """check_all of op's run under tree: "ok" or "fail: MESSAGE"."""
    try:
        tree.checks.check_all(op.cfg, trace)
    except tree.checks.CheckFailure as exc:
        return f"fail: {exc}"
    return "ok"
