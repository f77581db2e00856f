"""HTTP prediction service and the shared single-contract predict path.

Two endpoints: GET /config describes the loaded model, POST /predict takes
`{"smart_contract": "<hex>"}` and returns per-class probabilities plus the
handler's wall-clock time. The response document is composed by hand so
its key spelling and value formatting are byte-stable:

    {"prediction": {<class>: <prob, 4 decimals>, ...},
     "prediction_time in_second": "<seconds, 2 decimals>"}

Every prediction, from the CLI predict command or any number of
concurrent HTTP requests, that misses the result cache (below) runs
through one mol_net.Scanner: each request
is a row of one running GRU scan, joins it at the next step and leaves
when its last token is consumed (continuous batching). The thread that
finds the scan idle leads it and hands it to a waiting thread when its
own row is done, so a lone request runs on its caller's thread. A row's
numbers never depend on what else is in flight: every document is
byte-equal to the one the same contract gets when served alone, and
served probabilities are bit-identical to mol_net.forward on that
contract's ids.

Served probabilities are memoized per distinct token-id sequence. The key
is the SHA-256 digest of the encoded ids up to the sequence's true length
(the ids after it are padding, fixed by the model's max_sequence_length);
the value is a read-only copy of the row. Because a row's probabilities
depend only on its ids, bit for bit, a hit is exact: the document is
byte-equal to an uncached one. Normalization drops operands, so every
EIP-1167 proxy clone, whatever its target address, shares one entry. The
cache is one LRU of CACHE_ENTRIES rows behind the service lock; errors
are never cached, and concurrent misses on the same ids are not
coalesced (each runs its own row; the results are equal). At start-up the
scan checks once that its products on 2 and 3 rows agree on the shared
rows, the premise every cached answer is replayed on.

The handler reads the request line and headers itself, off the stdlib
server's connection loop, and sends each answer, status line, headers and
body, in one write. Every error is a JSON {"error": ...} document. It
answers a request it cannot frame (a bad request line, an oversized or
malformed header, more than one Content-Length, any Transfer-Encoding, no,
a bad or a too-large Content-Length, or a body that ends or stalls before
it) with an error and closes the connection; a client that hangs up ends
only its connection.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import EvmGuardError, MalformedInputError
# `preprocess` names the per-request stage; it yields Opcodes
from .evm_bytecode import opcodes as preprocess
# `forward` stays bound here, unused, because perfbench's serve launcher wraps service.forward.
from .mol_net import MolModel, Scanner, forward  # noqa: F401
from .tokenizer import Vocabulary, encode

REQUEST_FIELD = "smart_contract"
PREDICTION_KEY = "prediction"
TIMING_KEY = "prediction_time in_second"
CACHE_ENTRIES = 1024  # distinct token-id sequences whose probabilities are kept
# The hex of the largest code the EVM accepts (EIP-3860 initcode, 49,152
# bytes: 98,306 characters with "0x") plus JSON framing fits under this.
MAX_BODY_BYTES = 1 << 17
READ_TIMEOUT_S = 30.0  # per socket read or write on a connection
MAX_LINE_BYTES = 65536  # one header line, CRLF included, as the stdlib caps the request line
MAX_HEADERS = 100


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
        self._scanner.check_batch_invariance()
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
        vocab.check_fingerprint(model.vocab_fingerprint)
        self.model = model
        self.vocab = vocab
        self.raw = raw
        self.timer = timer
        self._lock = threading.Lock()
        self._scan = _SharedScan(model)
        self._cache: OrderedDict[bytes, np.ndarray] = OrderedDict()  # LRU, oldest first
        self._cell_keys = [json.dumps(name) + ": " for name in model.class_names]
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
        """Training-identical preprocessing, then the cached row or a row of the shared scan.

        The returned array is read-only: a hit hands every caller the same one.
        """
        tokens = preprocess(hex_text)
        seq = encode(tokens, self.vocab, self.model.stem.max_sequence_length)
        key = hashlib.sha256(seq.ids[: seq.true_length].tobytes()).digest()
        with self._lock:
            probs = self._cache.get(key)
            if probs is not None:
                self._cache.move_to_end(key)
                return probs
        probs = self._scan.probabilities(seq.ids).copy()  # not a view into the scan's batch
        probs.flags.writeable = False
        with self._lock:
            self._cache[key] = probs
            self._cache.move_to_end(key)
            if len(self._cache) > CACHE_ENTRIES:
                self._cache.popitem(last=False)
        return probs

    def predict_document(self, hex_text: str) -> str:
        started = self.timer()
        probs = self.predict_probabilities(hex_text)
        elapsed = self.timer() - started
        with self._lock:
            self.requests_served += 1
        # float32 -> float is exact, so each cell reads as the float32 value did
        fmt = json.dumps if self.raw else "{:.4f}".format
        cells = ", ".join(key + fmt(p) for key, p in zip(self._cell_keys, probs.tolist()))
        return (
            '{"' + PREDICTION_KEY + '": {' + cells + '}, "'
            + TIMING_KEY + '": "' + f"{elapsed:.2f}" + '"}'
        )


class _Headers(dict):
    """Request header values by lowercased name; get() takes a name in any case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    """The stdlib server's connection loop, with request parsing and answers of its own.

    parse_request reads the request line and the headers straight off the
    socket into a _Headers, and every answer, errors from the stdlib
    included, is one JSON document sent in one write.
    """

    protocol_version = "HTTP/1.1"
    # Each answer is one write, but with Nagle on, a write that follows one
    # the client has not yet acknowledged (an answer after a 100 Continue,
    # or pipelined answers) would wait for its delayed ACK, about 40 ms.
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_S
    _date = (None, "")  # (whole second, its Date value), shared by every connection

    @property
    def service(self) -> PredictionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # the client hung up; there is no one to answer
            self.close_connection = True

    def parse_request(self) -> bool:
        """Read `METHOD PATH HTTP/1.x` and its headers; False after answering a refused request.

        Every refusal closes the connection.
        """
        self.close_connection = True
        refusal = self._read_head()
        if refusal is not None:
            self._send_error(*refusal, close=True)
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive"
        )
        if self.request_version == "HTTP/1.1" and self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _read_head(self) -> tuple[int, str] | None:
        """Split the request line and read at most MAX_HEADERS header lines into a _Headers.

        Returns the status and message of a refusal, or None.
        """
        words = self.raw_requestline.decode("latin-1").rstrip("\r\n").split(" ")
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return 400, "request line is not `METHOD PATH HTTP/1.0|HTTP/1.1`"
        self.command, self.path, self.request_version = words
        self.headers = headers = _Headers()
        for count in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                return 431, f"header line longer than {MAX_LINE_BYTES} bytes"
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                return 431, f"more than {MAX_HEADERS} headers"
            text = line.decode("latin-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            name = name.lower()
            if not colon or not name or name != name.strip():
                return 400, f"malformed header line {text[:80]!r}"
            if name not in headers:
                headers[name] = value.strip(" \t")
            elif name == "content-length":
                return 400, "more than one Content-Length"
            # of any other repeated header, the first value is the one read
        if "transfer-encoding" in headers:
            return 501, "Transfer-Encoding is not supported"
        return None

    def _date_value(self) -> str:
        now = int(time.time())
        second, text = _Handler._date
        if second != now:
            text = self.date_time_string(now)
            _Handler._date = (now, text)
        return text

    def _send(self, status: int, body: str, close: bool = False) -> None:
        payload = body.encode("utf-8")
        close = close or self.close_connection
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\nDate: {self._date_value()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.close_connection = close
        self.wfile.write(head.encode("latin-1") + payload)

    def _send_error(self, status: int, message: str, close: bool = False) -> None:
        self._send(status, json.dumps({"error": message}), close)

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own refusals (414, 501 for an unknown method) as JSON, closing."""
        self._send_error(code, message or self.responses[code][0], close=True)

    def _read_body(self) -> bytes | None:
        """The request body, or None after answering a request whose body cannot be read.

        Every such answer closes the connection: the stream is no longer at
        a request boundary.
        """
        text = self.headers.get("Content-Length")
        if text is None:
            self._send_error(411, "Content-Length is required", close=True)
            return None
        if not (text.isascii() and text.isdigit()):
            self._send_error(400, f"Content-Length {text!r} is not a byte count", close=True)
            return None
        length = int(text)
        if length > MAX_BODY_BYTES:
            self._send_error(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}", close=True
            )
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._send_error(408, f"request body not received within {self.timeout} s", close=True)
            return None
        if len(body) < length:
            self._send_error(
                400, f"request body ended after {len(body)} of {length} bytes", close=True
            )
            return None
        return body

    def do_GET(self):
        if self.path != "/config":
            self._send_error(404, f"no such endpoint {self.path!r}")
            return
        self._send(200, self.service.config_document())

    def do_POST(self):
        if self.path != "/predict":  # its body is left unread, so the connection ends
            self._send_error(404, f"no such endpoint {self.path!r}", close=True)
            return
        body = self._read_body()
        if body is None:
            return
        try:
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
