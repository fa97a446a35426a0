"""The correctness check: served flows against an offline reference.

The reference is computed once per run from the same input the workload
serves: the offline ``FlowContextBuilder.encode_columns`` of the whole
trace (grouping every packet of a flow at once), and the served model's own
``predict_logits`` over those rows batched by exact length.  Inputs are
built so that no flow splits on idle (:func:`inputs.one_flow_per_tuple`),
which makes the offline grouping the exact expectation for the stream.
"""

from __future__ import annotations

import numpy as np

from repro.nn.numeric import ulp_budget, ulp_diff
from repro.serve import StreamingFlowAssembler

REFERENCE_BATCH = 32


class Reference:
    """Expected flows keyed like the assembler keys them."""

    def __init__(self, columns, tokenizer, vocabulary, builder, classifier):
        order, bounds = builder.group_columns(columns)
        self.ids, self.mask = builder.encode_columns(columns, tokenizer, vocabulary)
        first_rows = order[bounds[:-1]]
        keys = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=builder
        ).row_keys(columns[first_rows])
        self.index = {key: i for i, key in enumerate(keys)}
        if len(self.index) != len(keys):
            raise ValueError("offline flow keys are not unique")
        self.packets = len(columns)
        self.dtype = classifier.model_dtype
        lengths = self.mask.sum(axis=1)
        logits = None
        for width in np.unique(lengths):
            rows = np.flatnonzero(lengths == width)
            for start in range(0, len(rows), REFERENCE_BATCH):
                batch = rows[start : start + REFERENCE_BATCH]
                out = classifier.predict_logits(
                    self.ids[batch, :width], None, batch_size=len(batch)
                )
                if logits is None:
                    logits = np.empty((len(self.ids), out.shape[1]), dtype=out.dtype)
                logits[batch] = out
        self.logits = logits

    def __len__(self) -> int:
        return len(self.index)

    def check(self, predictions) -> tuple[np.ndarray, int, list[str]]:
        """Per-prediction correctness, failed-flow count and problems found.

        A prediction is correct when it is the first for an expected flow
        key, has generation 0, carries the offline token row, and its logits
        match the reference: bit-identical in float64, and in float32 within
        :func:`within_logits_budget`.  Failed flows are expected flows without
        a correct prediction plus predictions that claimed no expected flow.
        """
        problems = []
        correct = np.zeros(len(predictions), dtype=bool)
        claimed = np.zeros(len(self), dtype=bool)
        served, expected = [], []
        for j, prediction in enumerate(predictions):
            record = prediction.record
            i = self.index.get(record.key)
            if i is None or claimed[i]:
                continue
            claimed[i] = True
            if (
                record.generation == 0
                and np.array_equal(record.token_ids, self.ids[i])
                and np.array_equal(record.attention_mask, self.mask[i])
            ):
                served.append(j)
                expected.append(i)
        if served:
            got = np.stack([predictions[j].logits for j in served])
            want = self.logits[expected]
            if self.dtype == "float64":
                good = (got == want).all(axis=1)
            else:
                good = within_logits_budget(got, want)
            correct[np.asarray(served)[good]] = True
        packets = sum(p.record.packet_count for p in predictions)
        if packets != self.packets:
            problems.append(f"served {packets} packets of {self.packets}")
        failed = (len(self) - int(correct.sum())) + (len(predictions) - int(claimed.sum()))
        if failed:
            problems.append(f"{failed} failed flows of {len(self)}")
        return correct, failed, problems


def within_logits_budget(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-row float32 check: the ``"logits"`` ulp budget, at the row's scale.

    ``repro.nn.numeric`` allows ``ulp`` ulps per element, and exempts
    elements within ``atol`` because near zero an element's own ulp is too
    fine to measure rounding by.  That ``atol`` is absolute and was set on the
    32-wide E14 model; the packed float32 forward of a 256-wide, 4-layer
    model differs between batch compositions by up to ~2e-6 on logits of
    order 1, which fails it on near-zero elements.  So an element also passes
    within ``ulp`` ulps of the row's largest magnitude.  The argmax must
    match unless the reference's top two logits lie within that tolerance.
    """
    ulp, atol = ulp_budget("logits", got.dtype)
    scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1.0)
    tolerance = np.maximum(atol, ulp * np.finfo(got.dtype).eps * scale)
    close = (ulp_diff(got, want) <= ulp) | (np.abs(got.astype(np.float64) - want) <= tolerance)
    top = want.max(axis=1)
    picked = want[np.arange(len(want)), got.argmax(axis=1)]
    same_class = picked >= top - tolerance[:, 0]
    return close.all(axis=1) & same_class
