"""The package names the benchmark in `perfbench/` looks up must exist.

`perfbench/tracer.py` wraps every name in its `SPDCORE`, `GEOMETRY`,
`EMBEDDING`, `DATA`, `AUTODIFF_OPS` and `CONTAINER` lists, and
`perfbench/workloads.py` builds each workload from `spdtok.tasks`, `train`
and `verify`. A rename in the package fails here instead of in a benchmark
run. `perfbench/run.py` is not imported: it pins the BLAS thread count.
"""

import importlib.util
import inspect
import os

import pytest

from spdtok import autodiff, container, data, embedding, geometry, network, spdcore, train, verify
from spdtok.optim import Adam

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("module, names", [
    (spdcore, tracer.SPDCORE), (geometry, tracer.GEOMETRY), (embedding, tracer.EMBEDDING),
    (data, tracer.DATA), (autodiff, tracer.AUTODIFF_OPS), (container, tracer.CONTAINER),
], ids=["SPDCORE", "GEOMETRY", "EMBEDDING", "DATA", "AUTODIFF_OPS", "CONTAINER"])
def test_traced_names_exist(module, names):
    assert names
    missing = [n for n in names if not callable(getattr(module, n, None))]
    assert not missing, f"{module.__name__} lacks {missing}"


def test_traced_methods_exist():
    for owner, attr in ((Adam, "step"), (Adam, "zero_grad"), (autodiff.Tensor, "backward"),
                        (network.SpdTokenTransformer, "forward")):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_train_names_the_stage_probes_wrap():
    for attr in ("tokenize", "tokenize_matrices", "_evaluate", "write_run_dir", "run_single"):
        assert callable(getattr(train, attr, None)), f"train.{attr}"
    assert list(inspect.signature(train.run_single).parameters)[:4] == [
        "exp", "token_ds", "seed", "out_dir"]
    assert list(inspect.signature(train.write_run_dir).parameters) == [
        "out_dir", "report", "model", "best_state"]


@pytest.mark.parametrize("name", [*workloads.TRAINING, "verify"])
def test_workload_builds_at_tiny(name):
    seed = workloads.DEFAULT_SEEDS[name]
    if name == "verify":
        assert workloads.setup(name, seed, "tiny") == workloads.VERIFY_SIZES["tiny"]
        return
    exp = workloads.build(name, seed, "tiny")
    assert exp.seeds == (seed,) and exp.data.split_seed == seed
    cfg = workloads.model_config(exp)
    exp2, model, opt = workloads.setup(name, seed, "tiny")
    assert exp2.to_dict() == exp.to_dict()
    assert model.config == cfg
    assert isinstance(opt, Adam)


# suites that pass their keyword arguments on to a helper
FORWARDED = {"bn_embed": verify.bn_embed_slope}


@pytest.mark.parametrize("size", sorted(workloads.VERIFY_SIZES))
def test_verify_sizes_are_suite_parameters(size):
    for suite, kwargs in workloads.VERIFY_SIZES[size].items():
        assert suite in verify.SUITES, suite
        params = inspect.signature(FORWARDED.get(suite, verify.SUITES[suite])).parameters
        assert set(kwargs) <= set(params), f"{suite}: {set(kwargs) - set(params)}"
