"""Eval-mode helpers hand the module back in the caller's train/eval mode.

``SequenceClassifier.predict_logits_reference`` (the oracle the eval fast
path is checked against), ``integrated_gradients``,
``GRUClassifier.predict``, ``MLPRegressor.predict``, the few-shot
``PrototypeClassifier`` embedder, ``Pretrainer.masked_token_accuracy`` and
the ``repro.core.representation`` embedders switch to eval mode for their
forward.  Afterwards every submodule must be back in the mode the
caller had set — eval callers stay eval, train callers stay train — also
when the forward raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GRUClassifier, GRUClassifierConfig
from repro.context.builders import Context
from repro.core.config import NetFMConfig
from repro.core.fewshot import PrototypeClassifier
from repro.core.finetuning import FinetuneConfig, SequenceClassifier
from repro.core.model import NetFoundationModel
from repro.core.pretraining import Pretrainer
from repro.core.representation import contextual_token_embeddings, sequence_embeddings
from repro.interpret import integrated_gradients
from repro.tasks import MLPRegressor, MLPRegressorConfig
from repro.tokenize import Vocabulary

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


def _foundation_model():
    return NetFoundationModel(NetFMConfig(
        vocab_size=VOCAB, d_model=16, num_heads=2, num_layers=1, d_ff=32,
        max_len=8, dropout=0.1, seed=3,
    ))


def _contexts(tokens):
    return [Context(tokens=list(t), segments=[0] * len(t), packets=[]) for t in tokens]


# VOCABULARY fills the embedding table exactly (MLM's random replacement
# draws from all of it); WIDE_VOCABULARY is wider, so encoding its last
# tokens gives out-of-range ids that raise in the embedding lookup.
VOCABULARY = Vocabulary([f"t{i}" for i in range(15)])
WIDE_VOCABULARY = Vocabulary([f"t{i}" for i in range(2 * VOCAB)])
assert len(VOCABULARY) == VOCAB
CONTEXTS = _contexts([["t0", "t1", "t2"], ["t3", "t1"], ["t2", "t4", "t0", "t1"]])
BAD_CONTEXTS = _contexts([[f"t{2 * VOCAB - i}" for i in range(1, 7)]])


class _PretrainerModules:
    """A pretrainer whose mode is its encoder's and MLM head's together."""

    def __init__(self):
        self.pretrainer = Pretrainer(_foundation_model(), VOCABULARY)
        self.model = self.pretrainer.model
        self.mlm_head = self.pretrainer.mlm_head

    def accuracy(self, contexts, vocabulary=VOCABULARY):
        self.pretrainer.vocabulary = vocabulary
        return self.pretrainer.masked_token_accuracy(contexts)

    @property
    def training(self):
        return self.model.training

    def train(self, mode=True):
        self.model.train(mode)
        self.mlm_head.train(mode)

    def named_children(self):
        return [("model", self.model), ("mlm_head", self.mlm_head)]


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
    "prototype_embed": (
        _foundation_model,
        lambda m: PrototypeClassifier(m).fit(IDS, MASK, np.array([0, 1, 0])),
        lambda m: PrototypeClassifier(m).fit(BAD_IDS, MASK, np.array([0, 1, 0])),
    ),
    "masked_token_accuracy": (
        _PretrainerModules,
        lambda m: m.accuracy(CONTEXTS),
        lambda m: m.accuracy(BAD_CONTEXTS, WIDE_VOCABULARY),
    ),
    "contextual_token_embeddings": (
        _foundation_model,
        lambda m: contextual_token_embeddings(m, CONTEXTS, VOCABULARY),
        lambda m: contextual_token_embeddings(m, BAD_CONTEXTS, WIDE_VOCABULARY),
    ),
    "sequence_embeddings": (
        _foundation_model,
        lambda m: sequence_embeddings(m, CONTEXTS, VOCABULARY),
        lambda m: sequence_embeddings(m, BAD_CONTEXTS, WIDE_VOCABULARY),
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


def test_masked_token_accuracy_builds_no_tape():
    # The accuracy forward runs under no_grad: the MLM logits it reads carry
    # no tape, even when the caller left the modules in train mode.
    modules = _PretrainerModules()
    modules.train(True)
    head, seen = modules.mlm_head, []
    forward = head.forward

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append(out.requires_grad)
        return out

    head.forward = recording_forward
    accuracy = modules.accuracy(CONTEXTS)
    assert 0.0 <= accuracy <= 1.0
    assert seen == [False]
