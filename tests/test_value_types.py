"""The value types are named tuples with the semantics of the frozen
dataclasses they replaced.

`Path`, `Cycle` and `Monomial` are hashed and compared in every product
and normal form, so they take `tuple`'s own C slots for both.  The
oracles here are the old definitions themselves: frozen dataclasses with
the same fields, whose hash, equality and repr the named tuples must
reproduce exactly, so every set and dict order stays as it was.  A fresh
interpreter that imports the CLI must not load `dataclasses` or
`inspect`, which cost every CLI process about a third of its import time.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from leavitt import Cycle, Graph, Monomial, Path
from leavitt.graph import paths_up_to

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

SRC = FsPath(__file__).resolve().parent.parent / "src"


# -- the old definitions, as oracles ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class OldPath:
    base: str
    edges: tuple
    end: str


@dataclasses.dataclass(frozen=True)
class OldMonomial:
    p: OldPath
    q: OldPath


@dataclasses.dataclass(frozen=True)
class OldCycle:
    path: OldPath


# the generated repr names the class by its qualified name when called
OldPath.__qualname__, OldMonomial.__qualname__, OldCycle.__qualname__ = "Path", "Monomial", "Cycle"


def old_path(p):
    return OldPath(p.base, p.edges, p.end)


def old_monomial(m):
    return OldMonomial(old_path(m.p), old_path(m.q))


# -- strategies ----------------------------------------------------------------


@st.composite
def graphs(draw):
    """Digraphs on up to 4 vertices, loops and parallel edges allowed."""
    vs = draw(st.permutations(("v2", "v10", "a", "z")))[: draw(st.integers(1, 4))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=6))
    return Graph(vs, [(f"e{(7 * k) % 11}", s, d) for k, (s, d) in enumerate(ends)])


@st.composite
def path_pairs(draw):
    """Two paths of one graph, often equal, up to length 3."""
    paths = paths_up_to(draw(graphs()), 3)
    return draw(st.sampled_from(paths)), draw(st.sampled_from(paths))


@st.composite
def monomial_pairs(draw):
    """Two monomials p q* of one graph, often equal, up to length 2."""
    paths = paths_up_to(draw(graphs()), 2)
    by_end = {}
    for p in paths:
        by_end.setdefault(p.end, []).append(p)

    def monomial():
        p = draw(st.sampled_from(paths))
        return Monomial(p, draw(st.sampled_from(by_end[p.end])))

    return monomial(), monomial()


# -- the mechanism -----------------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import leavitt.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("cls", [Path, Monomial, Cycle])
def test_hash_and_equality_are_the_tuple_slots(cls):
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__


# -- value semantics against the old definitions -----------------------------------


def _assert_value_semantics(a, b, old, fields):
    assert hash(a) == hash(fields(a)) == hash(old(a))
    assert (a == b) == (fields(a) == fields(b)) == (old(a) == old(b))
    assert (a != b) == (fields(a) != fields(b))
    assert repr(a) == repr(old(a))
    assert not hasattr(a, "__dict__")
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a)
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    name = type(a)._fields[0]
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, before)
    assert getattr(a, name) is before


@SETTINGS
@hypothesis.given(path_pairs())
def test_path_is_the_old_path_value(pair):
    a, b = pair
    _assert_value_semantics(a, b, old_path, lambda p: (p.base, p.edges, p.end))
    assert repr(a) == f"Path(base={a.base!r}, edges={a.edges!r}, end={a.end!r})"
    assert len(a) == len(a.edges)
    assert bool(a) == bool(a.edges) == (not a.is_empty)


@SETTINGS
@hypothesis.given(monomial_pairs())
def test_monomial_is_the_old_monomial_value(pair):
    a, b = pair
    _assert_value_semantics(a, b, old_monomial, lambda m: (m.p, m.q))
    assert repr(a) == f"Monomial(p={a.p!r}, q={a.q!r})"


@SETTINGS
@hypothesis.given(path_pairs())
def test_cycle_is_the_old_cycle_value(pair):
    a, b = (Cycle(p) for p in pair)
    _assert_value_semantics(a, b, lambda c: OldCycle(old_path(c.path)), lambda c: (c.path,))
    assert repr(a) == f"Cycle(path={a.path!r})"

