"""Property-based tests of ``snapshot``, the structural state copier.

``copy.deepcopy`` is the reference: for any value, ``snapshot`` must build
an equal value with the same internal sharing and cycles, must share no
mutable container with the original, and must hand immutable leaves back by
identity (the property that keeps store, journal and live window from
tripling resident memory).
"""

import copy
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import SealedBlock, snapshot

Pair = namedtuple("Pair", "left right")


@dataclass
class Reading:
    label: str
    samples: list = field(default_factory=list)


MUTABLE = (dict, list, set, bytearray)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
)
flat_tuples = st.lists(leaves, max_size=3).map(tuple)
keys = st.one_of(st.text(max_size=3), st.integers(), flat_tuples)
hashables = st.one_of(st.integers(), st.text(max_size=3), flat_tuples)
block = SealedBlock.seal([(float(i), i * 0.5) for i in range(8)])


def containers(children):
    """Plain containers plus every type that must take the fallback."""
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.lists(children, max_size=3).map(tuple),  # mixed tuples
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
        st.binary(max_size=4).map(bytearray),
        st.dictionaries(keys, children, max_size=3).map(OrderedDict),
        st.tuples(children, children).map(lambda pair: Pair(*pair)),
        st.tuples(st.text(max_size=3), st.lists(children, max_size=3)).map(
            lambda args: Reading(*args)
        ),
        st.just(block),
    )


values = st.recursive(st.one_of(leaves, flat_tuples), containers, max_leaves=20)


@st.composite
def graphs(draw):
    """A value with sub-objects shared between branches and self-cycles."""
    shared = draw(values)
    value = {
        "a": draw(values),
        "twice": [shared, {"again": shared}, (shared, 1)],
        "ring": [draw(leaves)],
        "tuple_ring": ([draw(leaves)], "t"),
    }
    value["ring"].append(value["ring"])  # list containing itself
    value["self"] = value  # dict containing itself
    value["tuple_ring"][0].append(value["tuple_ring"])  # cycle through a tuple
    return value


def children_of(node):
    if isinstance(node, dict):
        for index, (key, item) in enumerate(node.items()):
            yield ("key", index), key
            yield ("value", index), item
    elif isinstance(node, (list, tuple)):
        yield from enumerate(node)
    elif isinstance(node, Reading):
        yield "samples", node.samples
    # Sets are unordered (their members are immutable leaves here) and
    # bytes/bytearray/SealedBlock hold no references: all terminal.


def walk(root):
    """Every node reachable from ``root`` as ``(path, node)``; a node that is
    reached again is reported again but not re-entered."""
    seen = set()
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if id(node) in seen:
            continue
        seen.add(id(node))
        for step, child in children_of(node):
            stack.append((path + (step,), child))


def topology(root):
    """Which paths reach the same mutable container: a partition of paths."""
    groups = {}
    for path, node in walk(root):
        if isinstance(node, MUTABLE + (Reading,)):
            groups.setdefault(id(node), set()).add(path)
    return {frozenset(paths) for paths in groups.values()}


def mutable_ids(root):
    return {id(node) for _, node in walk(root) if isinstance(node, MUTABLE)}


def is_immutable(node):
    if type(node) is tuple:
        return all(is_immutable(member) for member in node)
    return node is None or type(node) in (bool, int, float, str, bytes)


@given(values)
@settings(max_examples=300, deadline=None)
def test_snapshot_equals_deepcopy(value):
    assert snapshot(value) == copy.deepcopy(value)


@given(st.one_of(values, graphs()))
@settings(max_examples=300, deadline=None)
def test_no_mutable_container_is_shared_with_the_original(value):
    assert mutable_ids(value).isdisjoint(mutable_ids(snapshot(value)))


@given(st.one_of(values, graphs()))
@settings(max_examples=300, deadline=None)
def test_shared_references_and_cycles_keep_their_topology(value):
    copied = snapshot(value)
    assert topology(copied) == topology(value) == topology(copy.deepcopy(value))
    # Same paths, same types: in particular a rebuilt tuple reached twice is
    # one object twice (else the walk would enter its second occurrence).
    by_path = dict(walk(value))
    copied_by_path = dict(walk(copied))
    assert by_path.keys() == copied_by_path.keys()
    for path, node in by_path.items():
        assert type(copied_by_path[path]) is type(node)


@given(st.one_of(values, graphs()))
@settings(max_examples=300, deadline=None)
def test_immutable_leaves_come_back_by_identity(value):
    copied = dict(walk(snapshot(value)))
    for path, node in walk(value):
        if is_immutable(node):
            assert copied[path] is node


def test_cycles_survive():
    ring = [1]
    ring.append(ring)
    copied = snapshot(ring)
    assert copied is not ring and copied[1] is copied

    through_tuple = ([], "t")
    through_tuple[0].append(through_tuple)
    copied = snapshot(through_tuple)
    assert copied is not through_tuple
    assert copied[0] is not through_tuple[0]
    assert copied[0][0] is copied
