"""Sweep workers start with single-threaded BLAS, and the parent keeps its own.

``run_sweep`` spawns its pool from an environment in which every BLAS thread
count variable is 1, whatever the number of workers, and restores the
parent's values afterwards, also when the sweep raises.
"""

import os

import pytest

from sigspace import SweepSettings, VariantSpec, emit_outputs, run_sweep
from sigspace import experiments

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETTINGS = SweepSettings(d=16, redundancy=2, k=2, mode="separated")
VARIANTS = (
    VariantSpec("omp", "sscosamp", "omp"),
    VariantSpec("direct", "eps-omp-direct", "eps-omp", eps=0.3),
)


def tiny_sweep(**kwargs):
    return run_sweep(SETTINGS, VARIANTS, [8, 12], trials=2, base_seed=11, **kwargs)


def set_parent(monkeypatch, value):
    """Set every thread variable of the parent to value, or unset it (None)."""
    for name in THREAD_VARS:
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)


def test_pool_jobs_see_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with experiments._worker_pool(2) as pool:
        seen = [pool.submit(os.getenv, name).result() for name in THREAD_VARS]
    assert seen == ["1", "1", "1"]


@pytest.mark.parametrize("parent", (None, "3"), ids=("unset", "set"))
def test_parent_environment_is_restored_after_a_sweep(parent, monkeypatch):
    set_parent(monkeypatch, parent)
    tiny_sweep()
    assert [os.environ.get(name) for name in THREAD_VARS] == [parent] * 3


@pytest.mark.parametrize("parent", (None, "3"), ids=("unset", "set"))
def test_parent_environment_is_restored_after_a_sweep_that_raises(parent, monkeypatch):
    set_parent(monkeypatch, parent)

    def fail(done, total):
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        tiny_sweep(progress=fail)
    assert [os.environ.get(name) for name in THREAD_VARS] == [parent] * 3


def test_csv_bytes_do_not_depend_on_the_parent_blas_setting(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    two, _ = emit_outputs(tiny_sweep(), tmp_path / "two")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    unset, _ = emit_outputs(tiny_sweep(), tmp_path / "unset")
    assert two.read_bytes() == unset.read_bytes()
