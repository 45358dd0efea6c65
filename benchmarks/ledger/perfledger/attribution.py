"""Host-time attribution of a cProfile run to ``repro`` layers.

Rule: the self time of each profiled function is charged to the layer of
its file (``.../repro/<layer>/...``).  Functions outside ``repro`` —
stdlib and builtins such as ``heapq.heappush`` or ``copy.deepcopy`` —
inherit the layer of the nearest enclosing ``repro`` frame on the call
stack.  cProfile keeps caller->callee edges rather than stacks, so the
inheritance is resolved on the edge graph: an inheriting function's time on
each incoming edge goes where that caller's time goes, followed upwards
until a ``repro`` (or driver) frame is reached.  On a call tree that is
exactly the nearest-enclosing-frame rule; recursive stdlib helpers
(``deepcopy`` <-> ``_deepcopy_dict``) form cycles, which the fixed-point
iteration below resolves by the time entering the cycle from outside.
"""

from __future__ import annotations

import re

LAYERS = ("kernel", "net", "runtime", "storage", "aodb", "shm", "cattle", "obs")
OTHER = "other"

_LAYER_RE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")
_PROPAGATION_ROUNDS = 5000
_PROPAGATION_TOLERANCE = 1e-10

#: cProfile's stats: func -> (primitive calls, calls, self time, cumulative
#: time, {caller func: (calls, primitive calls, self time, cumulative time)})
#: with func = (filename, first line, name).
Func = tuple


def layer_of(func: Func, driver_dir: str) -> str | None:
    """The layer a function's own file belongs to; None = inherits."""
    filename = func[0]
    match = _LAYER_RE.search(filename)
    if match:
        layer = match.group(1)
        return layer if layer in LAYERS else OTHER
    if driver_dir and filename.startswith(driver_dir):
        return OTHER
    return None


def _inherited_mix(stats: dict, own: dict, weight_index: int) -> dict:
    """For every inheriting function, the layer mix of its callers.

    ``weight_index`` picks the edge weight: 2 (self time on that edge) for
    time, 0 (calls on that edge) for call counts.  Returns func -> {layer:
    share}, shares summing to 1.
    """
    inheriting = [func for func in stats if own[func] is None]
    incoming: dict[Func, list[tuple[Func, float]]] = {}
    for func in inheriting:
        callers = stats[func][4]
        edges = [(caller, edge[weight_index]) for caller, edge in callers.items()]
        total = sum(weight for _caller, weight in edges)
        if total <= 0:
            # Too fast to measure on any edge: fall back to call counts.
            edges = [(caller, edge[0]) for caller, edge in callers.items()]
            total = sum(weight for _caller, weight in edges)
        if total > 0:
            incoming[func] = [(caller, weight / total) for caller, weight in edges]
    # Start from nothing and let layer mass flow in from the repro frames:
    # inside a recursion cycle most weight sits on internal edges, so each
    # round only admits the share entering from outside the cycle.
    mix: dict[Func, dict[str, float]] = {func: {} for func in inheriting}
    for _ in range(_PROPAGATION_ROUNDS):
        changed = 0.0
        for func, edges in incoming.items():
            fresh: dict[str, float] = {}
            for caller, share in edges:
                layer = own.get(caller, OTHER)
                if layer is not None:
                    fresh[layer] = fresh.get(layer, 0.0) + share
                else:
                    for name, part in mix[caller].items():
                        fresh[name] = fresh.get(name, 0.0) + share * part
            old = mix[func]
            for name in {*fresh, *old}:
                changed = max(changed, abs(fresh.get(name, 0.0) - old.get(name, 0.0)))
            mix[func] = fresh
        if changed < _PROPAGATION_TOLERANCE:
            break
    for func, shares in mix.items():
        total = sum(shares.values())
        # No repro frame above it at all (profiler plumbing): the driver's.
        mix[func] = (
            {name: part / total for name, part in shares.items()}
            if total > 0 else {OTHER: 1.0}
        )
    return mix


def attribute(stats: dict, driver_dir: str = "") -> dict:
    """Charge self time and call counts of a cProfile ``stats`` dict to layers.

    Returns ``{"time_s": {layer: seconds}, "calls": {layer: count},
    "total_s": seconds}`` over :data:`LAYERS` plus ``"other"`` (the driver
    and anything that reaches no ``repro`` frame).
    """
    own = {func: layer_of(func, driver_dir) for func in stats}
    time_mix = _inherited_mix(stats, own, weight_index=2)
    call_mix = _inherited_mix(stats, own, weight_index=0)
    time_s = {layer: 0.0 for layer in (*LAYERS, OTHER)}
    calls = {layer: 0.0 for layer in (*LAYERS, OTHER)}
    for func, (_primitive, count, self_time, _cumulative, _callers) in stats.items():
        layer = own[func]
        if layer is not None:
            time_s[layer] += self_time
            calls[layer] += count
            continue
        for name, share in time_mix[func].items():
            time_s[name] += self_time * share
        for name, share in call_mix[func].items():
            calls[name] += count * share
    return {"time_s": time_s, "calls": calls, "total_s": sum(time_s.values())}


def entry_point(stats: dict, function) -> tuple[float, int]:
    """(cumulative seconds, calls) of one named public function in the profile."""
    code = getattr(function, "__func__", function).__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    row = stats.get(key)
    if row is None:
        return 0.0, 0
    return row[3], row[1]
