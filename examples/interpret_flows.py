"""Explain a traffic classifier's decisions with superfield explanations (Section 4.4).

Fine-tunes a small foundation model for application classification, then
explains a few predictions three ways: attention rollout, per-token occlusion,
and superfield (protocol-field group) occlusion — the superpixel analogue the
paper proposes.

Run with:  python examples/interpret_flows.py
"""

from __future__ import annotations

import numpy as np

from repro.context import FlowContextBuilder, encode_contexts
from repro.core import (
    FinetuneConfig,
    LabelEncoder,
    NetFMConfig,
    NetFoundationModel,
    Pretrainer,
    PretrainingConfig,
    SequenceClassifier,
)
from repro.interpret import (
    attention_rollout,
    field_superfields,
    grouped_occlusion_saliency,
    occlusion_saliency,
)
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

MAX_TOKENS = 40


def main() -> None:
    print("Generating traffic and training a small classifier ...")
    trace = EnterpriseScenario(EnterpriseScenarioConfig(seed=5, duration=25.0)).generate()
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS, label_key="application")
    contexts = [c for c in builder.build(trace, tokenizer) if c.label]
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    labels = LabelEncoder([c.label for c in contexts])
    ids, mask = encode_contexts(contexts, vocabulary, MAX_TOKENS)
    targets = labels.encode([c.label for c in contexts])

    model = NetFoundationModel(NetFMConfig(
        vocab_size=len(vocabulary), d_model=32, num_layers=2, num_heads=4, d_ff=64,
        max_len=MAX_TOKENS, dropout=0.0,
    ))
    Pretrainer(model, vocabulary, PretrainingConfig(epochs=2, batch_size=16)).pretrain(contexts)
    classifier = SequenceClassifier(model, labels.num_classes, FinetuneConfig(epochs=3, batch_size=16))
    classifier.fit(ids, mask, targets)

    rng = np.random.default_rng(0)
    for index in rng.choice(len(contexts), size=3, replace=False):
        context = contexts[index]
        predicted = int(classifier.predict(ids[index:index + 1], mask[index:index + 1])[0])
        print(f"\n=== context {index}: true={context.label}, "
              f"predicted={labels.classes[predicted]} ===")

        # The module forward records the attention maps (serving does not).
        classifier.predict_logits_reference(ids[index:index + 1], mask[index:index + 1])
        rollout = attention_rollout(classifier.model.attention_maps())[0]
        top_attention = np.argsort(-rollout[: len(context.tokens)])[:5]
        print("  attention rollout (top tokens): "
              + ", ".join(context.tokens[i] for i in top_attention if i < len(context.tokens)))

        saliency = occlusion_saliency(classifier.predict_proba, ids[index], mask[index],
                                      predicted, vocabulary.mask_id)
        top_tokens = np.argsort(-saliency[: len(context.tokens)])[:5]
        print("  token occlusion (top tokens):   "
              + ", ".join(context.tokens[i] for i in top_tokens if i < len(context.tokens)))

        groups = field_superfields(context.tokens)
        group_scores = grouped_occlusion_saliency(
            classifier.predict_proba, ids[index], mask[index], predicted,
            vocabulary.mask_id, groups,
        )
        ranked = sorted(group_scores.items(), key=lambda kv: -kv[1])[:4]
        print("  superfield occlusion:           "
              + ", ".join(f"{name} ({score:+.3f})" for name, score in ranked))


if __name__ == "__main__":
    main()
