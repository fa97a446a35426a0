"""Tests for OOD detection and interpretability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import Context, FlowContextBuilder, encode_contexts
from repro.core import FinetuneConfig, LabelEncoder, NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.interpret import (
    attention_rollout,
    byte_region_superfields,
    cls_attention,
    deletion_score,
    faithfulness_gap,
    field_superfields,
    grouped_occlusion_saliency,
    integrated_gradients,
    occlusion_saliency,
    packet_superfields,
    random_deletion_score,
)
from repro.ood import (
    EnergyDetector,
    EnsembleDisagreementDetector,
    KNNDistanceDetector,
    MahalanobisDetector,
    MaxSoftmaxDetector,
    ZeroDayScenario,
    detection_report,
    evaluate_scores,
)
from repro.tokenize import FieldAwareTokenizer, Vocabulary


class TestOODDetectors:
    def _gaussian_features(self, seed=0):
        rng = np.random.default_rng(seed)
        in_dist = rng.normal(0.0, 1.0, size=(200, 8))
        out_dist = rng.normal(4.0, 1.0, size=(80, 8))
        labels = rng.integers(0, 3, size=200)
        return in_dist, out_dist, labels

    def test_mahalanobis_separates(self):
        in_dist, out_dist, labels = self._gaussian_features()
        detector = MahalanobisDetector().fit(in_dist, labels)
        metrics = evaluate_scores(detector.score(in_dist), detector.score(out_dist))
        assert metrics["auroc"] > 0.95
        with pytest.raises(RuntimeError):
            MahalanobisDetector().score(in_dist)

    def test_knn_detector_separates(self):
        in_dist, out_dist, _ = self._gaussian_features(1)
        detector = KNNDistanceDetector(k=3).fit(in_dist)
        metrics = evaluate_scores(detector.score(in_dist), detector.score(out_dist))
        assert metrics["auroc"] > 0.95
        with pytest.raises(ValueError):
            KNNDistanceDetector(k=0)

    def test_max_softmax_and_energy(self):
        confident = np.array([[0.98, 0.01, 0.01], [0.9, 0.05, 0.05]])
        uncertain = np.array([[0.4, 0.3, 0.3]])
        detector = MaxSoftmaxDetector()
        assert detector.score(uncertain)[0] > detector.score(confident).max()
        with pytest.raises(ValueError):
            detector.score(np.zeros(3))
        energies = EnergyDetector().score(np.array([[10.0, 0.0], [0.1, 0.0]]))
        assert energies[0] < energies[1]  # larger logits -> lower energy -> less OOD
        with pytest.raises(ValueError):
            EnergyDetector(temperature=0.0)

    def test_ensemble_disagreement(self):
        agree = np.stack([np.array([[0.9, 0.1]]), np.array([[0.88, 0.12]])])
        disagree = np.stack([np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]])])
        detector = EnsembleDisagreementDetector()
        assert detector.score(disagree)[0] > detector.score(agree)[0]
        with pytest.raises(ValueError):
            detector.score(np.zeros((2, 2)))

    def test_evaluate_scores_and_report(self):
        metrics = evaluate_scores(np.zeros(10), np.ones(10))
        assert metrics["auroc"] == pytest.approx(1.0)
        assert metrics["fpr_at_95tpr"] == pytest.approx(0.0)
        report = detection_report({"knn": metrics})
        assert "knn" in report and "AUROC" in report
        with pytest.raises(ValueError):
            evaluate_scores(np.array([]), np.ones(3))


class TestZeroDayScenario:
    def test_split_structure(self):
        split = ZeroDayScenario(seed=0, duration=10.0, zero_day_type="port-scan").build()
        assert split.zero_day_type == "port-scan"
        assert "port-scan" not in split.known_types
        assert all(p.metadata["attack_type"] == "port-scan" for p in split.test_zero_day)
        assert not any(p.metadata.get("anomaly") for p in split.train_benign)
        assert len(split.train) == len(split.train_benign) + len(split.train_known_attacks)
        assert len(split.test) == len(split.test_benign) + len(split.test_zero_day)

    def test_invalid_attack_type(self):
        with pytest.raises(ValueError):
            ZeroDayScenario(zero_day_type="not-real")


@pytest.fixture(scope="module")
def tiny_classifier(small_contexts_module):
    contexts, vocab = small_contexts_module
    labelled = [c for c in contexts if c.label is not None]
    encoder = LabelEncoder([c.label for c in labelled])
    config = NetFMConfig(vocab_size=len(vocab), d_model=16, num_layers=1, num_heads=2,
                         d_ff=32, max_len=48, dropout=0.0, seed=0)
    model = NetFoundationModel(config)
    classifier = SequenceClassifier(model, encoder.num_classes,
                                    FinetuneConfig(epochs=2, batch_size=16, seed=0))
    ids, mask = encode_contexts(labelled, vocab, 48)
    labels = encoder.encode([c.label for c in labelled])
    classifier.fit(ids, mask, labels)
    return classifier, labelled, vocab, ids, mask, labels


@pytest.fixture(scope="module")
def small_contexts_module():
    from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

    trace = EnterpriseScenario(EnterpriseScenarioConfig(
        seed=3, duration=12.0, dns_clients=3, dns_queries_per_client=5,
        http_sessions=6, tls_sessions=8, iot_devices_per_type=1,
    )).generate()
    tokenizer = FieldAwareTokenizer()
    contexts = FlowContextBuilder(max_tokens=48).build(trace, tokenizer)
    vocab = Vocabulary.build([c.tokens for c in contexts])
    return contexts, vocab


class TestSuperfields:
    def test_field_superfields_group_by_prefix(self):
        tokens = ["[CLS]", "ip.proto=UDP", "dns.qname=netflix.com", "dns.qname.label=www",
                  "udp.dport=53", "[SEP]"]
        groups = field_superfields(tokens)
        assert set(groups) == {"ip.proto", "dns.qname", "udp.dport"}
        assert groups["dns.qname"] == [2, 3]

    def test_packet_superfields_use_segments(self):
        context = Context(tokens=["[CLS]", "a", "b", "[SEP]", "c"],
                          segments=[0, 0, 0, 0, 1], packets=[])
        groups = packet_superfields(context)
        assert groups == {"packet-0": [1, 2], "packet-1": [4]}

    def test_byte_region_superfields(self):
        tokens = [f"0x{i:02x}" for i in range(50)]
        groups = byte_region_superfields(tokens)
        assert len(groups["ip-header"]) == 20
        assert len(groups["transport-header"]) == 20
        assert len(groups["payload"]) == 10


class TestExplanations:
    def test_occlusion_saliency_identifies_marker_token(self):
        # Toy predictor: P(class 1) is high iff token id 7 is present.
        def predict(ids, mask):
            has_marker = (ids == 7).any(axis=1)
            p1 = np.where(has_marker, 0.9, 0.1)
            return np.stack([1 - p1, p1], axis=1)

        ids = np.array([1, 7, 3, 4])
        mask = np.ones(4, dtype=bool)
        saliency = occlusion_saliency(predict, ids, mask, target_class=1, mask_token_id=0)
        assert saliency.argmax() == 1
        with pytest.raises(ValueError):
            occlusion_saliency(predict, np.zeros((2, 3), dtype=int), np.ones((2, 3), bool), 0, 0)

    def test_grouped_occlusion(self):
        def predict(ids, mask):
            score = (ids == 7).any(axis=1).astype(float)
            return np.stack([1 - score, score], axis=1)

        ids = np.array([7, 7, 3, 4])
        mask = np.ones(4, dtype=bool)
        groups = {"marker": [0, 1], "rest": [2, 3]}
        saliency = grouped_occlusion_saliency(predict, ids, mask, 1, 0, groups)
        assert saliency["marker"] > saliency["rest"]

    def test_attention_explanations(self, tiny_classifier):
        classifier, _, _, ids, mask, _ = tiny_classifier
        classifier.predict_logits_reference(ids[:2], mask[:2])
        maps = classifier.model.attention_maps()
        cls_weights = cls_attention(maps)
        rolled = attention_rollout(maps)
        assert cls_weights.shape == rolled.shape == (2, ids.shape[1])
        np.testing.assert_allclose(rolled.sum(axis=1), np.ones(2), rtol=1e-6)
        with pytest.raises(ValueError):
            attention_rollout([])

    def test_integrated_gradients_runs_and_masks_padding(self, tiny_classifier):
        classifier, _, _, ids, mask, labels = tiny_classifier
        attributions = integrated_gradients(classifier, ids[0], mask[0],
                                            target_class=int(labels[0]), steps=4)
        assert attributions.shape == (ids.shape[1],)
        assert np.all(attributions[~mask[0]] == 0.0)
        assert np.abs(attributions).sum() > 0
        with pytest.raises(ValueError):
            integrated_gradients(classifier, ids, mask, 0)

    def test_faithfulness_gap_on_real_classifier(self, tiny_classifier):
        classifier, _, vocab, ids, mask, labels = tiny_classifier
        index = 0
        target = int(classifier.predict(ids[index:index + 1], mask[index:index + 1])[0])
        saliency = occlusion_saliency(
            classifier.predict_proba, ids[index], mask[index], target, vocab.mask_id
        )
        explained = deletion_score(classifier.predict_proba, ids[index], mask[index],
                                   target, saliency, vocab.mask_id)
        random_drop = random_deletion_score(classifier.predict_proba, ids[index], mask[index],
                                            target, vocab.mask_id,
                                            rng=np.random.default_rng(0))
        gap = faithfulness_gap(classifier.predict_proba, ids[index], mask[index], target,
                               saliency, vocab.mask_id, rng=np.random.default_rng(0))
        assert gap["explained"] == pytest.approx(explained)
        # Deleting the most salient tokens should hurt at least as much as random.
        assert gap["explained"] >= random_drop - 0.05
