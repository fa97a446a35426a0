"""Eval-mode helpers hand the module back in the caller's train/eval mode.

``SequenceClassifier.predict_logits_reference`` (the oracle the eval fast
path is checked against), ``integrated_gradients``,
``GRUClassifier.predict`` and ``MLPRegressor.predict`` switch to eval mode
for their forward.  Afterwards every submodule must be back in the mode the
caller had set — eval callers stay eval, train callers stay train — also
when the forward raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GRUClassifier, GRUClassifierConfig
from repro.core.config import NetFMConfig
from repro.core.finetuning import FinetuneConfig, SequenceClassifier
from repro.core.model import NetFoundationModel
from repro.interpret import integrated_gradients
from repro.tasks import MLPRegressor, MLPRegressorConfig

VOCAB = 20
IDS = np.random.default_rng(0).integers(0, VOCAB, (3, 6))
BAD_IDS = np.full((3, 6), VOCAB)  # one past the embedding table: raises
MASK = np.ones((3, 6), dtype=bool)


def _sequence_classifier():
    model = NetFoundationModel(NetFMConfig(
        vocab_size=VOCAB, d_model=16, num_heads=2, num_layers=1, d_ff=32,
        max_len=8, dropout=0.1, seed=3,
    ))
    return SequenceClassifier(model, 3, FinetuneConfig(dropout=0.1))


def _gru():
    return GRUClassifier(
        vocab_size=VOCAB, num_classes=2,
        config=GRUClassifierConfig(embedding_dim=8, hidden_size=8),
    )


# name -> (build, call, call that raises)
CASES = {
    "predict_logits_reference": (
        _sequence_classifier,
        lambda m: m.predict_logits_reference(IDS, MASK),
        lambda m: m.predict_logits_reference(BAD_IDS, MASK),
    ),
    "integrated_gradients": (
        _sequence_classifier,
        lambda m: integrated_gradients(m, IDS[0], MASK[0], 0, steps=2),
        lambda m: integrated_gradients(m, BAD_IDS[0], MASK[0], 0, steps=2),
    ),
    "gru_predict": (
        _gru,
        lambda m: m.predict(IDS, MASK),
        lambda m: m.predict(BAD_IDS, MASK),
    ),
    "mlp_predict": (
        lambda: MLPRegressor(4, MLPRegressorConfig(hidden=8)),
        lambda m: m.predict(np.zeros((5, 4))),
        lambda m: m.predict(np.zeros((5, 3))),  # width mismatch: raises
    ),
}


def _modes(module) -> set[bool]:
    modes = {module.training}
    for _, child in module.named_children():
        modes |= _modes(child)
    return modes


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_mode_is_restored(case, training):
    build, call, call_raising = CASES[case]
    module = build()
    module.train(training)
    call(module)
    assert _modes(module) == {training}
    with pytest.raises((IndexError, ValueError)):
        call_raising(module)
    assert _modes(module) == {training}


def test_reference_keeps_an_eval_caller_deterministic():
    # With dropout on, a classifier left in train mode gives a different
    # forward each call; an eval caller must keep its deterministic forward.
    clf = _sequence_classifier()
    clf.eval()
    clf.predict_logits_reference(IDS, None)
    assert np.array_equal(clf(IDS).data, clf(IDS).data)
