"""HTTP prediction service and the shared single-contract predict path.

Two endpoints: GET /config describes the loaded model, POST /predict takes
`{"smart_contract": "<hex>"}` and returns per-class probabilities plus the
handler's wall-clock time. The response document is composed by hand so
its key spelling and value formatting are byte-stable:

    {"prediction": {<class>: <prob, 4 decimals>, ...},
     "prediction_time in_second": "<seconds, 2 decimals>"}

Every prediction, from the CLI predict command or any number of
concurrent HTTP requests, runs through one mol_net.Scanner: each request
is a row of one running GRU scan, joins it at the next step and leaves
when its last token is consumed (continuous batching). The thread that
finds the scan idle leads it and hands it to a waiting thread when its
own row is done, so a lone request runs on its caller's thread. A row's
numbers never depend on what else is in flight: every document is
byte-equal to the one the same contract gets when served alone, and
served probabilities are bit-identical to mol_net.forward on that
contract's ids.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import ConfigError, EvmGuardError, MalformedInputError
from .evm_bytecode import preprocess
# `forward` stays bound here, unused, because perfbench's serve launcher wraps service.forward.
from .mol_net import MolModel, Scanner, forward  # noqa: F401
from .tokenizer import Vocabulary, encode

REQUEST_FIELD = "smart_contract"
PREDICTION_KEY = "prediction"
TIMING_KEY = "prediction_time in_second"


@dataclass
class _Request:
    ids: np.ndarray
    probs: np.ndarray | None = None
    error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.probs is not None or self.error is not None


class _SharedScan:
    """One Scanner shared by every in-flight request, stepped by one of their threads.

    Requests queue their ids; a thread that finds no leader becomes it,
    admits queued rows between steps and steps until its own row is done,
    then gives the scan up to a waiting thread (leader/follower). The
    scanner and `_rows` are touched only by the current leader.
    """

    def __init__(self, model: MolModel):
        self._scanner = Scanner(model)
        self._cond = threading.Condition()
        self._queued: list[_Request] = []
        self._rows: dict[int, _Request] = {}  # scanner slot -> its request
        self._leading = False

    def probabilities(self, ids: np.ndarray) -> np.ndarray:
        request = _Request(ids)
        with self._cond:
            self._queued.append(request)
            while self._leading and not request.done:
                self._cond.wait()
            lead = not request.done
            if lead:
                self._leading = True
        if lead:
            try:
                self._lead(request)
            finally:
                with self._cond:
                    self._leading = False
                    self._cond.notify_all()
        if request.error is not None:
            raise request.error
        return request.probs

    def _lead(self, own: _Request) -> None:
        try:
            while not own.done:
                if self._queued:
                    with self._cond:
                        for request in self._queued:
                            try:
                                self._rows[self._scanner.admit(request.ids)] = request
                            except MalformedInputError as exc:
                                request.error = exc
                                self._cond.notify_all()
                        self._queued.clear()
                finished = self._scanner.advance()
                if finished:
                    with self._cond:
                        for slot, probs in finished:
                            self._rows.pop(slot).probs = probs
                        self._cond.notify_all()
        except BaseException as exc:
            # The scan's state is unknown: fail every request in it or
            # queued for it, and start a fresh scan.
            with self._cond:
                for request in [*self._rows.values(), *self._queued]:
                    request.error = EvmGuardError(f"prediction scan failed: {exc!r}")
                self._rows.clear()
                self._queued.clear()
                self._scanner = Scanner(self._scanner.model)
            raise


class PredictionService:
    """Immutable model + vocabulary behind the predict/config operations."""

    def __init__(
        self,
        model: MolModel,
        vocab: Vocabulary,
        raw: bool = False,
        timer=time.perf_counter,
    ):
        if model.vocab_fingerprint is None:
            raise ConfigError("model carries no vocabulary fingerprint; train it first")
        if model.vocab_fingerprint != vocab.fingerprint():
            raise ConfigError(
                "vocabulary fingerprint mismatch: model was trained with "
                f"{model.vocab_fingerprint}, loaded {vocab.fingerprint()}"
            )
        self.model = model
        self.vocab = vocab
        self.raw = raw
        self.timer = timer
        self._lock = threading.Lock()
        self._scan = _SharedScan(model)
        self.requests_served = 0

    def config_document(self) -> str:
        doc = {
            "classes": self.model.class_names,
            "max_sequence_length": self.model.stem.max_sequence_length,
            "vocab_fingerprint": self.model.vocab_fingerprint,
            "n_parameters": int(sum(a.size for a in self.model.params.values())),
        }
        return json.dumps(doc)

    def predict_probabilities(self, hex_text: str) -> np.ndarray:
        """Training-identical preprocessing, then a row of the shared eval-mode scan."""
        tokens = preprocess(hex_text)
        seq = encode(tokens, self.vocab, self.model.stem.max_sequence_length)
        return self._scan.probabilities(seq.ids)

    def predict_document(self, hex_text: str) -> str:
        started = self.timer()
        probs = self.predict_probabilities(hex_text)
        elapsed = self.timer() - started
        with self._lock:
            self.requests_served += 1
        if self.raw:
            cells = ", ".join(
                f"{json.dumps(name)}: {json.dumps(float(p))}"
                for name, p in zip(self.model.class_names, probs)
            )
        else:
            cells = ", ".join(
                f"{json.dumps(name)}: {p:.4f}"
                for name, p in zip(self.model.class_names, probs)
            )
        return (
            '{"' + PREDICTION_KEY + '": {' + cells + '}, "'
            + TIMING_KEY + '": "' + f"{elapsed:.2f}" + '"}'
        )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, a keep-alive
    # client's delayed ACK would hold the body back about 40 ms.
    disable_nagle_algorithm = True

    @property
    def service(self) -> PredictionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, status: int, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, json.dumps({"error": message}))

    def do_GET(self):
        if self.path != "/config":
            self._send_error(404, f"no such endpoint {self.path!r}")
            return
        self._send(200, self.service.config_document())

    def do_POST(self):
        if self.path != "/predict":
            self._send_error(404, f"no such endpoint {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length)
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(400, f"request body is not valid JSON: {exc}")
            return
        if not isinstance(request, dict) or set(request) != {REQUEST_FIELD}:
            self._send_error(
                400, f"request must have exactly one field named {REQUEST_FIELD!r}"
            )
            return
        if not isinstance(request[REQUEST_FIELD], str):
            self._send_error(400, f"{REQUEST_FIELD!r} must be a hex string")
            return
        try:
            document = self.service.predict_document(request[REQUEST_FIELD])
        except MalformedInputError as exc:
            self._send_error(400, str(exc))
            return
        except EvmGuardError as exc:
            self._send_error(500, str(exc))
            return
        self._send(200, document)


def make_server(service: PredictionService, host: str, port: int) -> ThreadingHTTPServer:
    """Bound but not yet serving; call serve_forever() or run it in a thread."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(service: PredictionService, host: str = "127.0.0.1", port: int = 8000) -> None:
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
