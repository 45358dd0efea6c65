"""The profiler's stack-inheritance rule on synthetic cProfile tables."""

import pytest

from perfledger.attribution import LAYERS, attribute, entry_point, layer_of

KERNEL = ("/x/src/repro/kernel/scheduler.py", 10, "_run")
RUNTIME = ("/x/src/repro/runtime/runtime.py", 20, "send")
STORAGE = ("/x/src/repro/storage/serde.py", 30, "snapshot")
BENCH = ("/x/src/repro/bench/workload.py", 5, "run_load")
DRIVER = ("/x/benchmarks/ledger/perfledger/loadgen.py", 40, "one")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
DEEPCOPY = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
DEEPCOPY_DICT = ("/usr/lib/python3.11/copy.py", 227, "_deepcopy_dict")
ROOT = ("~", 0, "<method 'enable' of '_lsprof.Profiler' objects>")


def row(calls, self_time, callers):
    """A pstats row; ``callers`` maps caller -> (calls, self time on the edge)."""
    return (calls, calls, self_time, self_time,
            {caller: (n, n, t, t) for caller, (n, t) in callers.items()})


def test_layer_of_reads_the_file_path():
    assert layer_of(KERNEL, "/x/benchmarks/ledger") == "kernel"
    assert layer_of(BENCH, "/x/benchmarks/ledger") == "other"
    assert layer_of(DRIVER, "/x/benchmarks/ledger") == "other"
    assert layer_of(HEAPPUSH, "/x/benchmarks/ledger") is None


def test_stdlib_frames_inherit_the_nearest_enclosing_repro_frame():
    # driver -> runtime.send -> kernel._run -> heappush   (3 s, all from kernel)
    #                        -> heappush                  (1 s, from runtime)
    stats = {
        DRIVER: row(1, 0.5, {}),
        RUNTIME: row(10, 2.0, {DRIVER: (10, 2.0)}),
        KERNEL: row(10, 4.0, {RUNTIME: (10, 4.0)}),
        HEAPPUSH: row(40, 4.0, {KERNEL: (30, 3.0), RUNTIME: (10, 1.0)}),
    }
    table = attribute(stats, driver_dir="/x/benchmarks/ledger")
    assert table["time_s"]["kernel"] == pytest.approx(4.0 + 3.0)
    assert table["time_s"]["runtime"] == pytest.approx(2.0 + 1.0)
    assert table["time_s"]["other"] == pytest.approx(0.5)
    assert table["total_s"] == pytest.approx(10.5)
    assert table["calls"]["kernel"] == pytest.approx(10 + 30)
    assert table["calls"]["runtime"] == pytest.approx(10 + 10)
    assert set(table["time_s"]) == {*LAYERS, "other"}


def test_recursive_stdlib_cycles_resolve_to_where_the_time_entered():
    # storage.snapshot calls deepcopy 10 times; deepcopy and _deepcopy_dict
    # then call each other 1 000 times.  A second, smaller entry comes from
    # runtime.  Inside the cycle 99 % of the edge weight is internal.
    stats = {
        STORAGE: row(10, 1.0, {}),
        RUNTIME: row(5, 1.0, {}),
        DEEPCOPY: row(1015, 6.0, {STORAGE: (10, 0.06), RUNTIME: (5, 0.02),
                                  DEEPCOPY_DICT: (1000, 5.92)}),
        DEEPCOPY_DICT: row(1000, 4.0, {DEEPCOPY: (1000, 4.0)}),
    }
    table = attribute(stats)
    # 0.06 : 0.02 of the entering time -> 3/4 storage, 1/4 runtime.
    assert table["time_s"]["storage"] == pytest.approx(1.0 + 10.0 * 0.75, rel=1e-6)
    assert table["time_s"]["runtime"] == pytest.approx(1.0 + 10.0 * 0.25, rel=1e-6)
    assert table["time_s"]["other"] == pytest.approx(0.0, abs=1e-6)


def test_frames_with_no_repro_ancestor_are_the_drivers():
    stats = {ROOT: row(1, 0.25, {}), KERNEL: row(1, 1.0, {ROOT: (1, 1.0)})}
    table = attribute(stats)
    assert table["time_s"]["other"] == pytest.approx(0.25)
    assert table["time_s"]["kernel"] == pytest.approx(1.0)


def test_unmeasurably_fast_edges_fall_back_to_call_counts():
    stats = {
        KERNEL: row(3, 1.0, {}),
        RUNTIME: row(1, 1.0, {}),
        HEAPPUSH: row(4, 0.0, {KERNEL: (3, 0.0), RUNTIME: (1, 0.0)}),
    }
    table = attribute(stats)
    assert table["calls"]["kernel"] == pytest.approx(3 + 3)
    assert table["calls"]["runtime"] == pytest.approx(1 + 1)


def test_entry_point_finds_a_function_by_its_code_object():
    def sample():
        return None

    code = sample.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    stats = {key: (7, 7, 0.5, 2.5, {})}
    assert entry_point(stats, sample) == (2.5, 7)
    assert entry_point({}, sample) == (0.0, 0)
    assert entry_point(stats, classmethod(sample)) == (2.5, 7)
