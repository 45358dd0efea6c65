"""Serialization helpers enforcing message and state isolation.

Actors must not share *mutable* state.  Every message payload (with
``copy_messages=True``) and every stored state document crosses its
boundary through :func:`snapshot`, the in-process stand-in for serializing
over the wire.  Its contract:

- **Shared by identity:** values nobody can mutate — ``None``, ``bool``,
  ``int``, ``float``, ``complex``, ``str``, ``bytes``, ``range``, and tuples
  whose members all copy to themselves (``copy.deepcopy``'s own rule).  A
  channel document (``TieredSeries.to_document``) is built once per window
  version, its block documents a tuple and its hot head one packed
  ``bytes`` column: one version's block tuple and head ``bytes`` are
  therefore the same objects in the window's cached document, the store and
  the redo journal, and a copy of the document walks a handful of leaves
  however many points the head holds.
- **Copied:** every plain ``dict`` and ``list`` (and any tuple that reaches
  one) becomes a fresh container.  References shared inside one value stay
  shared in the copy, and cycles survive, exactly as with ``deepcopy``.
- **Falls back** to ``copy.deepcopy`` with the same memo: everything else —
  subclasses (``OrderedDict``, ``defaultdict``, namedtuples), ``set`` /
  ``frozenset``, ``bytearray``, dataclasses, ``SealedBlock``, anything with
  ``__deepcopy__``.
- **Handed over as is:** a value wrapped in :class:`Frozen` comes back
  unwrapped and unwalked.  The producer promises it is already isolated and
  never mutated again (the redo journal's payload); :func:`estimate_size`
  sizes the wrapped value, so capacity charges do not see the marker.

Sharing leaves is safe for the reason single-writer actor databases give:
only the owning activation can reach its document, a mutation needs a
mutable container to happen in, and no mutable container is ever shared.

A list of at least ``_LEAF_RUN`` members (a cattle herd, an ingest batch of
``(ts, value)`` pairs) is first checked with one C-level type scan;
if every member copies to itself the copy is one slice instead of a Python
call per member.  Shorter lists take the per-member loop, so small
documents pay nothing for the check.

``snapshot`` does *not* check that a value could be serialized for real (a
lambda is atomic to it, as it was to ``deepcopy``); :func:`estimate_size` and
:func:`ensure_serializable` do.
"""

from __future__ import annotations

import pickle
from copy import deepcopy
from itertools import chain
from typing import Any


class NotSerializableError(TypeError):
    """The value cannot cross an actor or storage boundary."""


def ensure_serializable(value: Any) -> None:
    """Raise :class:`NotSerializableError` if ``value`` cannot be pickled."""
    try:
        pickle.dumps(value)
    except Exception as exc:  # noqa: BLE001 - pickle raises many types
        raise NotSerializableError(
            f"value of type {type(value).__name__} cannot cross an actor "
            f"boundary: {exc}"
        ) from exc


#: Exact types whose instances cannot be mutated and hold no references:
#: the copy of one is the object itself.
_LEAVES = frozenset({type(None), bool, int, float, complex, str, bytes, range})
_TUPLES = frozenset({tuple})

#: Lists at least this long try the one-pass leaf-run check before the loop.
_LEAF_RUN = 16


class Frozen:
    """A value handed across a boundary by identity, not copied.

    Wrap only a value nobody mutates any more and no caller can reach a
    mutable container of (a fresh payload around an already-snapshotted
    document).  Honoured at the top of a value by :func:`snapshot` and
    :func:`estimate_size`.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def snapshot(value: Any) -> Any:
    """Return a copy of ``value`` that shares no mutable container with it.

    A structural copy rather than a pickle round trip: it preserves the
    object graph (shared references and cycles within one value) and shares
    the immutable leaves, which a round trip would re-allocate.  A
    :class:`Frozen` value is returned unwrapped, without a walk.
    """
    if type(value) is Frozen:
        return value.value
    return _copy(value, {})


def _copy(value: Any, memo: dict[int, Any]) -> Any:
    """``snapshot``'s recursion; ``memo`` maps ``id(original)`` to its copy.

    Dispatch is on the exact type, so a subclass never takes a branch written
    for its base.  The memo holds containers only (leaves are their own
    copy) and is ``deepcopy``'s memo, so the fallback sees what was already
    copied here and the other way round.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    if cls is tuple:
        # The hot case, a ``(ts, value)`` point or a block document: nothing
        # to copy or memo.
        for member in value:
            if type(member) not in _LEAVES:
                break
        else:
            return value
    elif cls is not dict and cls is not list:
        return deepcopy(value, memo)
    key = id(value)
    copied = memo.get(key)
    if copied is not None:
        return copied
    if cls is dict:
        copied = memo[key] = {}
        for name, item in value.items():
            if type(name) not in _LEAVES:
                name = _copy(name, memo)
            copied[name] = item if type(item) in _LEAVES else _copy(item, memo)
        return copied
    if cls is list:
        if len(value) >= _LEAF_RUN:
            # Leaves only, or leaf-only tuples only: every member is its own
            # copy, so one C-level type scan and a slice replace the loop.
            kinds = set(map(type, value))
            if kinds <= _LEAVES or (
                kinds == _TUPLES
                and set(map(type, chain.from_iterable(value))) <= _LEAVES
            ):
                copied = memo[key] = value[:]
                return copied
        copied = memo[key] = []
        append = copied.append
        for item in value:
            append(item if type(item) in _LEAVES else _copy(item, memo))
        return copied
    members = [_copy(member, memo) for member in value]
    # A cycle through a mutable member may have copied this tuple meanwhile.
    copied = memo.get(key)
    if copied is not None:
        return copied
    for member, member_copy in zip(value, members):
        if member is not member_copy:
            copied = memo[key] = tuple(members)
            return copied
    return value


def estimate_size(value: Any) -> int:
    """Rough byte size of a value, used for storage capacity accounting.

    A :class:`Frozen` value is sized as the value it wraps.
    """
    if type(value) is Frozen:
        value = value.value
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # noqa: BLE001
        raise NotSerializableError(
            f"cannot size value of type {type(value).__name__}: {exc}"
        ) from exc
