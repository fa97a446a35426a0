"""Sharded on-disk corpus: lossless round-trips and streamed pretraining.

``save_shards``/``open_shards`` must be lossless across shard-size
boundaries (1, n-1, n, n+1), and streaming a sharded corpus through
``encode_columns`` + ``pretrain_encoded`` must reproduce the in-memory
corpus loss for loss.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.context import PacketContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, Pretrainer, PretrainingConfig
from repro.corpus import PacketTraceCorpus, SHARD_FORMAT, ShardedCorpus
from repro.corpus.packets import MANIFEST_NAME
from repro.net import PacketColumns
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import DNSWorkloadConfig, DNSWorkloadGenerator, EnterpriseScenario, EnterpriseScenarioConfig


def assert_columns_equal(reference: PacketColumns, columns: PacketColumns) -> None:
    for field in dataclasses.fields(PacketColumns):
        actual = getattr(columns, field.name)
        expected = getattr(reference, field.name)
        if isinstance(expected, np.ndarray):
            assert actual.shape == expected.shape, field.name
            assert np.array_equal(actual, expected), field.name
        else:
            assert actual == expected, field.name


@pytest.fixture(scope="module")
def corpus():
    return PacketTraceCorpus.from_scenarios([
        EnterpriseScenario(EnterpriseScenarioConfig(seed=2, duration=6.0)),
        DNSWorkloadGenerator(DNSWorkloadConfig(seed=3, num_clients=4,
                                               queries_per_client=5, duration=8.0)),
    ])


class TestShardRoundTrip:
    def test_lossless_across_shard_boundaries(self, corpus, tmp_path):
        n = len(corpus)
        for shard_rows in (1, n - 1, n, n + 1):
            directory = tmp_path / f"shards-{shard_rows}"
            corpus.save_shards(directory, shard_rows=shard_rows)
            restored = PacketTraceCorpus.open_shards(directory)
            assert len(restored) == n
            assert_columns_equal(corpus.columns, restored.columns())
            assert restored.labels() == corpus.labels()

    def test_shard_sizing(self, corpus, tmp_path):
        corpus.save_shards(tmp_path / "s", shard_rows=100)
        sharded = PacketTraceCorpus.open_shards(tmp_path / "s")
        n = len(corpus)
        assert sharded.num_shards == (n + 99) // 100
        sizes = [len(shard) for shard in sharded]
        assert sum(sizes) == n
        assert all(size == 100 for size in sizes[:-1])

    def test_single_shard_equals_select(self, corpus, tmp_path):
        corpus.save_shards(tmp_path / "s", shard_rows=64)
        sharded = PacketTraceCorpus.open_shards(tmp_path / "s")
        assert_columns_equal(corpus.columns[0:64], sharded.shard(0))
        assert_columns_equal(corpus.columns[64:128], sharded.shard(1))

    def test_empty_corpus(self, tmp_path):
        empty = PacketTraceCorpus.from_packets([])
        empty.save_shards(tmp_path / "e", shard_rows=8)
        restored = PacketTraceCorpus.open_shards(tmp_path / "e")
        assert len(restored) == 0 and restored.num_shards == 0
        assert_columns_equal(empty.columns, restored.columns())

    def test_manifest_contents(self, corpus, tmp_path):
        corpus.save_shards(tmp_path / "s", shard_rows=128,
                           label_keys=("application", "device"))
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        assert manifest["format"] == SHARD_FORMAT
        assert manifest["num_rows"] == len(corpus)
        assert set(manifest["label_vocab"]) == {"application", "device"}
        expected_vocab = sorted({str(v) for v in corpus.labels() if v is not None})
        assert manifest["label_vocab"]["application"] == expected_vocab

    def test_open_rejects_non_corpus(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedCorpus(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="manifest"):
            ShardedCorpus(tmp_path)

    def test_validator_accepts_saved_corpus(self, corpus, tmp_path):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_shards", Path(__file__).parent.parent / "tools" / "check_shards.py"
        )
        check_shards = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_shards)
        corpus.save_shards(tmp_path / "s", shard_rows=200)
        assert check_shards.check_corpus(tmp_path / "s", deep=True) == []


class TestStreamedPretraining:
    def test_streamed_encode_matches_in_memory(self, corpus, tmp_path):
        tokenizer = FieldAwareTokenizer()
        builder = PacketContextBuilder(max_tokens=32)
        contexts = builder.build(corpus.columns, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        full_ids, full_mask = builder.encode_columns(corpus.columns, tokenizer, vocabulary)

        corpus.save_shards(tmp_path / "s", shard_rows=37)
        sharded = PacketTraceCorpus.open_shards(tmp_path / "s")
        ids, mask = sharded.encode_columns(builder, tokenizer, vocabulary)
        np.testing.assert_array_equal(full_ids, ids)
        np.testing.assert_array_equal(full_mask, mask)

    def test_streamed_pretraining_loss_for_loss(self, corpus, tmp_path):
        tokenizer = FieldAwareTokenizer()
        builder = PacketContextBuilder(max_tokens=32)
        contexts = builder.build(corpus.columns, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])

        def pretrain(ids, mask):
            model = NetFoundationModel(NetFMConfig(
                vocab_size=len(vocabulary), d_model=16, num_layers=1, num_heads=2,
                d_ff=32, max_len=32, dropout=0.0, seed=0,
            ))
            pretrainer = Pretrainer(
                model, vocabulary, PretrainingConfig(epochs=1, batch_size=8, seed=0)
            )
            return pretrainer.pretrain_encoded(ids, mask).losses

        full = pretrain(*builder.encode_columns(corpus.columns, tokenizer, vocabulary))
        corpus.save_shards(tmp_path / "s", shard_rows=41)
        sharded = PacketTraceCorpus.open_shards(tmp_path / "s")
        streamed = pretrain(*sharded.encode_columns(builder, tokenizer, vocabulary))
        assert full == streamed


class TestShardWriteOrder:
    def test_manifest_written_last(self, corpus, tmp_path, monkeypatch):
        # Every shard file a manifest names must already be on disk when the
        # manifest appears — savez order is observed via a write hook.
        events: list[str] = []
        original = np.savez

        def tracking_savez(path, **payload):
            assert not (Path(path).parent / MANIFEST_NAME).exists()
            events.append(Path(path).name)
            return original(path, **payload)

        monkeypatch.setattr(np, "savez", tracking_savez)
        corpus.save_shards(tmp_path / "ordered", shard_rows=60)
        manifest = json.loads(
            (tmp_path / "ordered" / "manifest.json").read_text()
        )
        assert sorted(events) == sorted(s["file"] for s in manifest["shards"])
