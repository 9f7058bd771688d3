"""The perfbench tracer's hooks against the package: every function it names
exists, a traced link prediction records its spans and pair count, and
``restore`` puts every original back."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from dynten import linkpred, tensors
from dynten.synth import dynamic_sbm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, read without writing a bytecode cache there."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True), \
            mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclass
        spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_restore_undoes_it():
    tracing = load_tracing()
    originals = {name: linkpred.__dict__[name] for name in
                 ("evaluate_link_prediction", "sample_training_set", "cross_validated_scores")}
    from_slices = tensors.SparseTensor3.__dict__["from_slices"]
    net, _ = dynamic_sbm(30, 3, seed=1)
    emb = np.random.default_rng(0).standard_normal((net.n, 2))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a traced name the package lacks raises KeyError here
        assert all(linkpred.__dict__[name] is not fn for name, fn in originals.items())
        linkpred.evaluate_link_prediction(net, 2, emb, "l2", 5, seed=0)
    finally:
        tracer.restore()
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("linkpred.evaluate", -1), ("linkpred.sample", 0), ("linkpred.cv", 0)]
    assert tracer.count == {"linkpred.pairs": 10.0}
    assert all(linkpred.__dict__[name] is fn for name, fn in originals.items())
    assert tensors.SparseTensor3.__dict__["from_slices"] is from_slices
