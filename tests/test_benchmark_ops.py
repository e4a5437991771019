"""Every benchmark op, run once and passed through its own check.

Each of the four workloads in `perfbench/workloads.py` is built at its
`DEFAULT_SEEDS` seed, and every op's output goes through that op's
`check`: the λ̂ band, λ̃ = 25/6, soundness of at least 0.95 and the
profile reference among them.  A change that breaks a benchmark check
fails here, before any benchmark run.  The two workloads that fit many
balls of one grid also run each op on a build whose grids the whole op
list has left a warm ball memo and on a fresh build, and require equal
digests.  The module is loaded from its file, so nothing under
`perfbench/` lands on the import path.
"""

import importlib.util
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_benchmark_op_passes_its_check(name, tmp_path):
    wl = workloads.BUILDERS[name](workloads.DEFAULT_SEEDS[name], str(tmp_path))
    assert wl.ops
    for op in wl.ops:
        op.check(op.run())


@pytest.mark.parametrize("name", ["certify-e2e", "fit-interp", "metric-compare"])
def test_op_digests_equal_on_a_warm_and_a_fresh_build(name, tmp_path):
    seed = workloads.DEFAULT_SEEDS[name]
    warm = workloads.BUILDERS[name](seed, str(tmp_path))
    for op in warm.ops:
        op.run()
    for i, op in enumerate(warm.ops):
        fresh = workloads.BUILDERS[name](seed, str(tmp_path)).ops[i]
        assert op.check(op.run()) == fresh.check(fresh.run()), op.label
