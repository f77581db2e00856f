"""Spans around calls into the program's modules, and the per-layer metrics
computed from them.

The benchmark replaces module attributes with timing wrappers, at the
binding the program actually calls (`mol_net.forward` as `trainer` looks
it up, `service.forward` as bound in `service`). Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("evm_bytecode.parse_hex_ms", "ms"),
    ("evm_bytecode.disassemble_ms", "ms"),
    ("evm_bytecode.normalize_ms", "ms"),
    ("evm_bytecode.default_table_calls", "count"),
    ("tokenizer.encode_ms", "ms"),
    ("tokenizer.oov_share", "share"),
    ("tokenizer.truncated_share", "share"),
    ("tokenizer.pad_share", "share"),
    ("corpus.read_reports_ms", "ms"),
    ("corpus.arbitrate_labels_ms", "ms"),
    ("corpus.write_chunk_ms", "ms"),
    ("corpus.read_chunk_ms", "ms"),
    ("mol_net.forward_train_ms", "ms"),
    ("mol_net.backward_ms", "ms"),
    ("mol_net.adam_step_ms", "ms"),
    ("mol_net.scan_positions", "count"),
    ("mol_net.scan_pad_share", "share"),
    ("mol_net.stem_recompute_ratio", "ratio"),
    ("mol_net.forward_eval_ms", "ms"),
    ("mol_net.load_model_ms", "ms"),
    ("trainer.loop_self_ms", "ms"),
    ("trainer.evaluate_ms", "ms"),
    ("trainer.evaluate_calls_per_epoch", "count"),
    ("trainer.encode_records_ms", "ms"),
    ("metrics.evaluate_ms", "ms"),
    ("service.predict_document_ms", "ms"),
    ("service.preprocess_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.forward_ms", "ms"),
    ("service.format_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("cli.serve_ready_ms", "ms"),
    ("cli.label_ms", "ms"),
    ("cli.chunk_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# span fields: id, parent id, name, start s, end s, request id, info
ID, PARENT, NAME, START, END, REQUEST, INFO = range(7)


class Tracer:
    """Records one span per wrapped call; nesting comes from a per-thread stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def set_request(self, request_id) -> None:
        self._local.request = request_id

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        stack = self._stack()
        sid, parent = next(self._ids), (stack[-1] if stack else 0)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, parent, name, start, end, getattr(self._local, "request", None), info])

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace owner.attr with a traced call; info(args, kwargs, result) -> json."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid, parent = next(tracer._ids), (stack[-1] if stack else 0)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append([sid, parent, name, start, end, getattr(tracer._local, "request", None),
                                 info(args, kwargs, result) if info else None])
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class OpClock:
    """Latency of one operation from the call that opens it to the call that closes it.

    Two perf_counter reads per operation: the untraced runs time operations
    with this and record no spans.
    """

    def __init__(self):
        self.latencies_ms: list[float] = []
        self._opened = None
        self._undo: list[tuple] = []

    def install(self, opener: tuple, closer: tuple, when=None) -> None:
        (o_owner, o_attr), (c_owner, c_attr) = opener, closer
        open_fn, close_fn = getattr(o_owner, o_attr), getattr(c_owner, c_attr)
        clock = self

        def opening(*args, **kwargs):
            if when is None or when(args, kwargs):
                clock._opened = time.perf_counter()
            return open_fn(*args, **kwargs)

        def closing(*args, **kwargs):
            result = close_fn(*args, **kwargs)
            if clock._opened is not None:
                clock.latencies_ms.append((time.perf_counter() - clock._opened) * 1e3)
                clock._opened = None
            return result

        setattr(o_owner, o_attr, opening)
        setattr(c_owner, c_attr, closing)
        self._undo += [(o_owner, o_attr, open_fn), (c_owner, c_attr, close_fn)]

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# --- probes: what a wrapper records about a call besides its time ---


def encode_info(args, kwargs, result):
    """(tokens in, tokens kept, OOV ids among them, max_sequence_length)."""
    tokens = args[0]
    kept = result.true_length
    oov = int((result.ids[:kept] == 1).sum())
    return [len(tokens), kept, oov, int(result.ids.shape[0])]


def forward_info(args, kwargs, result):
    """(mode, rows, scanned positions, padded positions scanned).

    `forward` scans as many steps as the longest row has nonzero ids.
    """
    ids = args[1]
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    nonzero = (ids != 0).sum(axis=1)
    positions = ids.shape[0] * (int(nonzero.max()) if ids.shape[0] else 0)
    return [mode, int(ids.shape[0]), positions, positions - int(nonzero.sum())]


# --- per-layer metrics ---


def _ms(spans) -> list[float]:
    return [(s[END] - s[START]) * 1e3 for s in spans]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric; a layer that made no call in this workload reads 0.

    `extra` carries what the spans cannot: optimizer_steps, global_epochs,
    transfer_records, serve_ready_ms, rtt_ms (request id -> client round
    trip), overhead_pct.
    """
    by_name = defaultdict(list)
    kids = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s[NAME]].append(s)
        kids[s[PARENT]].append(s)
        by_id[s[ID]] = s

    def named(*names):
        return [s for n in names for s in by_name[n]]

    def med(*names):
        return _median(_ms(named(*names)))

    def under(span, ancestor_names):
        while span[PARENT]:
            span = by_id.get(span[PARENT])
            if span is None:
                return False
            if span[NAME] in ancestor_names:
                return True
        return False

    def child_ms(span):
        return sum(_ms(kids[span[ID]]))

    out = {}
    out["evm_bytecode.parse_hex_ms"] = med("evm_bytecode.parse_hex")
    out["evm_bytecode.disassemble_ms"] = med("evm_bytecode.disassemble")
    out["evm_bytecode.normalize_ms"] = med("evm_bytecode.normalize")
    contracts = len(named("cli.preprocess", "service.preprocess"))
    out["evm_bytecode.default_table_calls"] = (
        len(named("evm_bytecode.default_table")) / contracts if contracts else 0.0
    )

    encodes = named("tokenizer.encode", "service.encode")
    out["tokenizer.encode_ms"] = _median(_ms(encodes))
    kept = sum(s[INFO][1] for s in encodes)
    slots = sum(s[INFO][3] for s in encodes)
    out["tokenizer.oov_share"] = sum(s[INFO][2] for s in encodes) / kept if kept else 0.0
    out["tokenizer.truncated_share"] = (
        sum(s[INFO][0] > s[INFO][3] for s in encodes) / len(encodes) if encodes else 0.0
    )
    out["tokenizer.pad_share"] = (slots - kept) / slots if slots else 0.0

    for name in ("read_reports", "arbitrate_labels", "write_chunk", "read_chunk"):
        out[f"corpus.{name}_ms"] = med(f"corpus.{name}")

    forwards = named("mol_net.forward", "service.forward")
    train_fw = [s for s in forwards if s[INFO][0] == "train"]
    out["mol_net.forward_train_ms"] = _median(_ms(train_fw))
    out["mol_net.backward_ms"] = med("mol_net.backward")
    out["mol_net.adam_step_ms"] = med("mol_net.adam_step")
    out["mol_net.scan_positions"] = _median([s[INFO][2] for s in train_fw])
    scanned = sum(s[INFO][2] for s in train_fw)
    out["mol_net.scan_pad_share"] = sum(s[INFO][3] for s in train_fw) / scanned if scanned else 0.0
    transfer_rows = sum(s[INFO][1] for s in forwards if under(s, {"trainer.transfer_train"}))
    records = extra.get("transfer_records", 0)
    out["mol_net.stem_recompute_ratio"] = transfer_rows / records if records else 0.0
    out["mol_net.forward_eval_ms"] = _median(_ms([s for s in forwards if s[INFO][0] == "eval"]))
    out["mol_net.load_model_ms"] = med("mol_net.load_model")

    loops = named("trainer.train", "trainer.transfer_train")
    steps = extra.get("optimizer_steps", 0)
    self_ms = sum(_ms(loops)) - sum(child_ms(s) for s in loops)
    out["trainer.loop_self_ms"] = self_ms / steps if steps else 0.0
    out["trainer.evaluate_ms"] = med("trainer.evaluate")
    epochs = extra.get("global_epochs", 0)
    in_loop = [s for s in named("trainer.evaluate") if by_id.get(s[PARENT], [0, 0, ""])[NAME] in
               ("trainer.train", "trainer.transfer_train")]
    out["trainer.evaluate_calls_per_epoch"] = len(in_loop) / epochs if epochs else 0.0
    out["trainer.encode_records_ms"] = med("trainer.encode_records")
    out["metrics.evaluate_ms"] = med("metrics.evaluate")

    documents = named("service.predict_document")
    out["service.predict_document_ms"] = _median(_ms(documents))
    out["service.preprocess_ms"] = med("service.preprocess")
    out["service.encode_ms"] = med("service.encode")
    out["service.forward_ms"] = med("service.forward")
    stage_ms = defaultdict(float)  # per request: time inside predict_document's stages
    for s in named("service.preprocess", "service.encode", "service.forward"):
        stage_ms[s[REQUEST]] += (s[END] - s[START]) * 1e3
    out["service.format_ms"] = _median([ms - stage_ms[d[REQUEST]] for d, ms in zip(documents, _ms(documents))])
    rtt = extra.get("rtt_ms", {})
    out["service.wire_ms"] = _median(
        [rtt[s[REQUEST]] - (s[END] - s[START]) * 1e3 for s in named("service.handler") if s[REQUEST] in rtt]
    )
    out["cli.serve_ready_ms"] = extra.get("serve_ready_ms", 0.0)
    out["cli.label_ms"] = med("cli.label")
    out["cli.chunk_ms"] = med("cli.chunk")
    out["trace.overhead_pct"] = extra.get("overhead_pct", 0.0)
    return out
