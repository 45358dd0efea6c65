"""Property-based tests of ``snapshot``, the structural state copier.

``copy.deepcopy`` is the reference: for any value, ``snapshot`` must build
an equal value with the same internal sharing and cycles, must share no
mutable container with the original, and must hand immutable leaves back by
identity (the property that keeps store, journal and live window from
tripling resident memory).

The second half pins the one-pass copy of long leaf runs against
``walk_copy``, the plain per-member walk ``snapshot`` used before it: same
value, same pickle bytes, same sharing, on plain dict/list/tuple documents
built to cross the run threshold both ways.
"""

import copy
import pickle
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


# -- the leaf-run fast path against the per-member walk ------------------------

LEAF_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes, range})


def walk_copy(value, memo=None):
    """``snapshot`` as a per-member walk, with no leaf-run shortcut."""
    if memo is None:
        memo = {}
    cls = type(value)
    if cls in LEAF_TYPES:
        return value
    if cls is tuple:
        for member in value:
            if type(member) not in LEAF_TYPES:
                break
        else:
            return value
    elif cls is not dict and cls is not list:
        return copy.deepcopy(value, memo)
    key = id(value)
    copied = memo.get(key)
    if copied is not None:
        return copied
    if cls is dict:
        copied = memo[key] = {}
        for name, item in value.items():
            if type(name) not in LEAF_TYPES:
                name = walk_copy(name, memo)
            if type(item) not in LEAF_TYPES:
                item = walk_copy(item, memo)
            copied[name] = item
        return copied
    if cls is list:
        copied = memo[key] = []
        for item in value:
            if type(item) not in LEAF_TYPES:
                item = walk_copy(item, memo)
            copied.append(item)
        return copied
    members = [walk_copy(member, memo) for member in value]
    copied = memo.get(key)
    if copied is not None:
        return copied
    for member, member_copy in zip(value, members):
        if member is not member_copy:
            copied = memo[key] = tuple(members)
            return copied
    return value


plain_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.integers(0, 4).map(range),
)
leaf_tuples = st.lists(plain_leaves, max_size=3).map(tuple)
finite = st.floats(allow_nan=False)
# Lengths straddle snapshot's leaf-run threshold (16 members) on purpose.
heads = st.lists(st.tuples(finite, finite), max_size=24)  # (ts, value) pairs
leaf_runs = st.lists(plain_leaves, min_size=12, max_size=24)
mixed_runs = st.lists(st.one_of(plain_leaves, leaf_tuples), min_size=12, max_size=20)
plain_keys = st.one_of(st.text(max_size=3), st.integers(), leaf_tuples)


@st.composite
def tuple_runs(draw):
    """A long list of tuples, one of which may hold a list."""
    run = draw(st.lists(leaf_tuples, min_size=16, max_size=20))
    if draw(st.booleans()):
        run.insert(draw(st.integers(0, len(run))), (draw(finite), [draw(finite)]))
    return run


def plain_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, min_size=15, max_size=17),  # long, holding containers
        st.dictionaries(plain_keys, children, max_size=4),
        st.lists(children, min_size=1, max_size=3).map(tuple),  # may hold lists
    )


documents = st.recursive(
    st.one_of(plain_leaves, leaf_tuples, heads, leaf_runs, mixed_runs, tuple_runs()),
    plain_containers,
    max_leaves=10,
)


def is_container(value):
    return type(value) in (dict, list)


@st.composite
def shared_documents(draw):
    """A document with one inner container referenced twice and a cycle."""
    shared = draw(st.one_of(heads, leaf_runs, documents.filter(is_container)))
    ring = draw(leaf_runs)
    ring.append(ring)  # a long run that is not all leaves: it holds itself
    root = {
        "doc": draw(documents),
        "shared": shared,
        "again": [shared, (shared, "tag")],
        "ring": ring,
    }
    root["self"] = root
    return root


def leaf_tuple_paths(root):
    for path, node in walk(root):
        if type(node) is tuple and all(type(m) in LEAF_TYPES for m in node):
            yield path, node


@given(documents)
def test_snapshot_equals_the_per_member_walk(value):
    assert snapshot(value) == walk_copy(value) == value


@given(st.one_of(documents, shared_documents()))
def test_snapshot_builds_what_the_per_member_walk_builds(value):
    # One test, several properties: generating the documents is the cost.
    copied = snapshot(value)
    oracle = walk_copy(value)
    assert pickle.dumps(copied) == pickle.dumps(oracle) == pickle.dumps(value)
    assert mutable_ids(value).isdisjoint(mutable_ids(copied))
    by_path = dict(walk(copied))
    for path, node in leaf_tuple_paths(value):
        assert by_path[path] is node
    assert topology(copied) == topology(oracle) == topology(value)
