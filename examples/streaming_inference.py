"""Streaming inference: serve a live packet stream through the model.

An end-to-end `repro.serve` deployment:

1. train a small classifier offline (the usual columnar pipeline: generate,
   group into flow contexts, build the vocabulary, fine-tune);
2. replay a fresh capture as a *stream* of bounded columnar chunks;
3. assemble flows incrementally with NetFlow-style idle timeouts — every
   closed flow's encoded context is bit-identical to what the offline
   pipeline would produce for the same trace;
4. serve the closed flows through the ``InferenceEngine``, which runs every
   pending flow in one ragged forward at each tick of the stream clock,
   with an LRU prediction cache keyed by the encoded context;
5. print the serving scorecard: throughput, p50/p99 latency, the lag from
   a flow's last packet to its prediction, cache hits.

Run with:  python examples/streaming_inference.py
"""

from __future__ import annotations

from collections import Counter

from repro.context import FlowContextBuilder
from repro.core import (
    FinetuneConfig,
    LabelEncoder,
    NetFMConfig,
    NetFoundationModel,
    SequenceClassifier,
)
from repro.serve import (
    ColumnsSource,
    InferenceEngine,
    PredictionCache,
    StreamingFlowAssembler,
    serve_stream,
)
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

MAX_TOKENS = 64


def scenario(seed: int) -> EnterpriseScenario:
    return EnterpriseScenario(EnterpriseScenarioConfig(
        seed=seed, duration=30.0, dns_clients=6, dns_queries_per_client=8,
        http_sessions=10, tls_sessions=10, iot_devices_per_type=1,
    ))


def main() -> None:
    print("[1/3] Offline: train a flow classifier on one capture ...")
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS)
    train_columns = scenario(seed=1).generate_columns()
    contexts = builder.build(train_columns, tokenizer)
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    ids, mask, labels = builder.encode_columns(
        train_columns, tokenizer, vocabulary, return_labels=True
    )
    keep = [i for i, label in enumerate(labels) if label is not None]
    encoder = LabelEncoder([labels[i] for i in keep])
    model = NetFoundationModel(NetFMConfig(
        vocab_size=len(vocabulary), d_model=32, num_layers=2, num_heads=4,
        d_ff=64, max_len=MAX_TOKENS, dropout=0.0, seed=0,
    ))
    classifier = SequenceClassifier(
        model, encoder.num_classes, FinetuneConfig(epochs=2, seed=0)
    )
    classifier.fit(ids[keep], mask[keep], encoder.encode([labels[i] for i in keep]))
    print(f"        {len(keep)} labelled flows, {encoder.num_classes} classes")

    print("[2/3] Online: stream a fresh capture through the serving stack ...")
    capture = scenario(seed=2).generate_columns()

    assembler = StreamingFlowAssembler(
        tokenizer, vocabulary,
        builder=FlowContextBuilder(max_tokens=MAX_TOKENS),
        idle_timeout=60.0,
    )
    engine = InferenceEngine(
        classifier, batch_size=32, cache=PredictionCache(max_entries=4096)
    )
    predictions = list(serve_stream(
        ColumnsSource(capture, chunk_rows=256), assembler, engine
    ))
    served = Counter(encoder.classes[p.class_id] for p in predictions)

    print("[3/3] Serving scorecard")
    summary = engine.summary()
    print(f"        flows served      {summary['flows']}"
          f"  (packets {summary['packets']})")
    print(f"        throughput        {summary['flows_per_s']:.0f} flows/s"
          f"  ({summary['packets_per_s']:.0f} packets/s)")
    print(f"        latency           p50 {summary['p50_ms']:.2f} ms"
          f"  p99 {summary['p99_ms']:.2f} ms")
    print(f"        forward runs      {summary['batches']}"
          f"  (mean size {summary['mean_batch']:.1f})")
    triggers = ", ".join(
        f"{name} {count}" for name, count in summary["batches_by_trigger"].items()
    )
    print(f"        run triggers      {triggers}")
    if summary["last_packet_to_emit_p50_s"] is not None:
        print(f"        last packet->emit p50 {summary['last_packet_to_emit_p50_s']:.2f} s"
              f"  p99 {summary['last_packet_to_emit_p99_s']:.2f} s (capture time)")
    print(f"        cache hit rate    {summary['cache_hit_rate']:.1%}")
    print("        predicted classes:")
    for label, count in served.most_common():
        print(f"          {label:24} {count}")


if __name__ == "__main__":
    main()
