"""Serialization helpers enforcing message and state isolation.

Actors must not share *mutable* state.  Every message payload (with
``copy_messages=True``) and every stored state document crosses its
boundary through :func:`snapshot`, the in-process stand-in for serializing
over the wire.  Its contract:

- **Shared by identity:** values nobody can mutate — ``None``, ``bool``,
  ``int``, ``float``, ``complex``, ``str``, ``bytes``, ``range``, and tuples
  whose members all copy to themselves (``copy.deepcopy``'s own rule).  A
  channel document's compressed block ``bytes`` and ``(ts, value)`` head
  pairs are therefore the same objects in the live window, the store and
  the redo journal — which is what keeps resident memory flat.
- **Copied:** every plain ``dict`` and ``list`` (and any tuple that reaches
  one) becomes a fresh container.  References shared inside one value stay
  shared in the copy, and cycles survive, exactly as with ``deepcopy``.
- **Falls back** to ``copy.deepcopy`` with the same memo: everything else —
  subclasses (``OrderedDict``, ``defaultdict``, namedtuples), ``set`` /
  ``frozenset``, ``bytearray``, dataclasses, ``SealedBlock``, anything with
  ``__deepcopy__``.

Sharing leaves is safe for the reason single-writer actor databases give:
only the owning activation can reach its document, a mutation needs a
mutable container to happen in, and no mutable container is ever shared.

``snapshot`` does *not* check that a value could be serialized for real (a
lambda is atomic to it, as it was to ``deepcopy``); :func:`estimate_size` and
:func:`ensure_serializable` do.
"""

from __future__ import annotations

import pickle
from copy import deepcopy
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


def snapshot(value: Any) -> Any:
    """Return a copy of ``value`` that shares no mutable container with it.

    A structural copy rather than a pickle round trip: it preserves the
    object graph (shared references and cycles within one value) and shares
    the immutable leaves, which a round trip would re-allocate.
    """
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
        # The hot case, a ``(ts, value)`` head pair: nothing to copy or memo.
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
    """Rough byte size of a value, used for storage capacity accounting."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # noqa: BLE001
        raise NotSerializableError(
            f"cannot size value of type {type(value).__name__}: {exc}"
        ) from exc
