"""Seeded benchmark inputs: the trace, its pcap, the vocabulary, the weights.

Everything a workload serves is made here from the benchmark's ``--seed``
before any timing starts, and written under a scratch directory the run
removes afterwards.  The serving side then only loads files, as a deployed
classifier would.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.context.builders import FlowContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.net.flow_columns import is_idle_split
from repro.net.pcap import write_pcap_columns
from repro.nn.serialization import save_checkpoint
from repro.serve import StreamingFlowAssembler, chunk_columns
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

#: NetFlow idle timeout every workload serves with.
IDLE_TIMEOUT = 15.0
#: Capture seconds of the served trace (full size) and of the smoke trace.
CAPTURE_SECONDS = 180.0
SMOKE_CAPTURE_SECONDS = 20.0
#: Capture seconds of the (differently seeded) vocabulary trace.
VOCAB_CAPTURE_SECONDS = 60.0
VOCAB_SEED_OFFSET = 7919
NUM_CLASSES = 4
BATCH_SIZE = 32

#: Model shapes.  ``e14`` is the E14 serving model; ``large`` makes the
#: forward the dominant cost.
MODELS = {
    "e14": dict(d_model=32, num_layers=2, num_heads=4, d_ff=64, max_tokens=64),
    "large": dict(d_model=256, num_layers=4, num_heads=4, d_ff=512, max_tokens=128),
}


def scenario_config(seed: int, capture_s: float) -> EnterpriseScenarioConfig:
    """E14's DNS-heavy enterprise mix at E14's per-second density.

    E14's ``generation_config`` runs 60 DNS clients per minute of capture at
    two-fold scale; this keeps that density (2 DNS clients, 2/3 HTTP and 1/3
    TLS sessions per capture second) for any capture length, which holds the
    open-flow population at the idle timeout steady.
    """
    return EnterpriseScenarioConfig(
        seed=seed, duration=capture_s,
        dns_clients=int(round(2 * capture_s)), dns_queries_per_client=15,
        http_sessions=int(round(2 * capture_s / 3)),
        tls_sessions=int(round(capture_s / 3)), iot_devices_per_type=1,
    )


def one_flow_per_tuple(columns):
    """Drop connections a 5-tuple-keyed reader could not tell apart.

    A pcap carries no connection ids, so capture replay keys flows by the
    bidirectional 5-tuple.  The generator can reuse a client port for a
    second connection, and a connection can idle past the timeout; either
    would make the streamed flows legitimately differ from an offline
    grouping of the whole trace.  Keeping only the first connection of every
    5-tuple, and only connections without an idle gap, makes the offline
    grouping the exact reference for every workload.
    """
    ids = columns.connection_ids
    a = (columns.ip_src.astype(np.int64) << 16) | columns.src_port.astype(np.int64)
    b = (columns.ip_dst.astype(np.int64) << 16) | columns.dst_port.astype(np.int64)
    tuples = np.stack([
        np.minimum(a, b), np.maximum(a, b),
        columns.ip_protocol.astype(np.int64), columns.has_ip.astype(np.int64),
    ], axis=1)
    _, first_row, tuple_of = np.unique(
        tuples, axis=0, return_index=True, return_inverse=True
    )
    keep = ids == ids[first_row][tuple_of.ravel()]
    order = np.lexsort((columns.timestamps, ids))
    gaps = np.diff(columns.timestamps[order])
    same = ids[order][1:] == ids[order][:-1]
    idle = same & is_idle_split(gaps, IDLE_TIMEOUT)
    keep &= ~np.isin(ids, ids[order][1:][idle])
    return columns[np.flatnonzero(keep)]


@dataclasses.dataclass
class Inputs:
    """Files and in-memory inputs one run serves."""

    columns: object  # PacketColumns, time-ordered
    vocab_path: Path
    checkpoint_path: Path
    pcap_path: "Path | None"


def make_trace(seed: int, capture_s: float):
    return one_flow_per_tuple(
        EnterpriseScenario(scenario_config(seed, capture_s)).generate_columns()
    )


def make_vocabulary(seed: int) -> Vocabulary:
    """Vocabulary of a differently seeded trace: serving sees OOV tokens."""
    columns = EnterpriseScenario(
        scenario_config(seed + VOCAB_SEED_OFFSET, VOCAB_CAPTURE_SECONDS)
    ).generate_columns()
    contexts = FlowContextBuilder(max_tokens=MODELS["e14"]["max_tokens"]).build(
        columns, FieldAwareTokenizer()
    )
    return Vocabulary.build([c.tokens for c in contexts])


def model_config(model: str, vocab_size: int, seed: int) -> NetFMConfig:
    dims = MODELS[model]
    return NetFMConfig(
        vocab_size=vocab_size, d_model=dims["d_model"],
        num_layers=dims["num_layers"], num_heads=dims["num_heads"],
        d_ff=dims["d_ff"], max_len=dims["max_tokens"], dropout=0.0, seed=seed,
    )


def prepare(seed: int, model: str, with_pcap: bool, workdir: Path,
            capture_s: float) -> Inputs:
    """Make and save every input of one run (untimed)."""
    columns = make_trace(seed, capture_s)
    vocabulary = make_vocabulary(seed)
    vocab_path = vocabulary.save(workdir / "vocab.json")
    classifier = SequenceClassifier(
        NetFoundationModel(model_config(model, len(vocabulary), seed)),
        num_classes=NUM_CLASSES,
    )
    checkpoint_path = save_checkpoint(classifier, workdir / f"{model}.npz")
    pcap_path = None
    if with_pcap:
        pcap_path = write_pcap_columns(workdir / "trace.pcap", columns)
    return Inputs(columns, vocab_path, checkpoint_path, pcap_path)


def properties(seed: int) -> dict:
    """The traffic properties serving behaviour depends on, for one seed."""
    columns = make_trace(seed, CAPTURE_SECONDS)
    vocabulary = make_vocabulary(seed)
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MODELS["e14"]["max_tokens"])
    ids, mask = builder.encode_columns(columns, tokenizer, vocabulary)
    lengths = mask.sum(axis=1)
    contexts = [row[:n].tobytes() for row, n in zip(ids, lengths)]
    assembler = StreamingFlowAssembler(
        tokenizer, vocabulary, builder=builder, idle_timeout=IDLE_TIMEOUT
    )
    open_max = 0
    for chunk in chunk_columns(columns, 256):
        assembler.push(chunk)
        open_max = max(open_max, len(assembler))
    span = float(columns.timestamps[-1] - columns.timestamps[0])
    return {
        "packets": len(columns),
        "flows": len(ids),
        "packets_per_flow": len(columns) / len(ids),
        "tokens_per_flow": float(lengths.mean()),
        "distinct_lengths": int(len(np.unique(lengths))),
        "repeat_share": 1.0 - len(set(contexts)) / len(contexts),
        "open_flows_max": open_max,
        "capture_s": span,
        "oov_share": float((ids == vocabulary.unk_id).sum() / lengths.sum()),
    }
