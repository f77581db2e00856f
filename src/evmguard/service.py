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
cache is one LRU of CACHE_ENTRIES rows, filled by the scan's leader as it
hands each finished row to its waiter. One condition guards the cache
and the scan's queue, slot map and leader flag, and is never held while
the scan runs, so a hit is answered while a long row is scanned. Errors
are never cached, and concurrent misses on the same ids are not
coalesced (each runs its own row; the results are equal). At start-up the
scan checks once that its products on 2 and 3 rows agree on the shared
rows, the premise every cached answer is replayed on.

The handler reads the request line and headers itself and sends each
answer, status line, headers and body, in one write. Every error is a
JSON {"error": ...} document. It answers a request it cannot frame (a bad
request line, an oversized or malformed header, more than one
Content-Length, any Transfer-Encoding, no, a bad or a too-large
Content-Length, or a body that ends or stalls before it) with an error
and closes the connection; a client that hangs up ends only its
connection.
"""

from __future__ import annotations

import hashlib
import json
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http import HTTPStatus

import numpy as np

from .errors import EvmGuardError, MalformedInputError
# `preprocess` names the per-request stage; it yields Opcodes
from .evm_bytecode import opcodes as preprocess
# `forward` stays bound here, unused, because perfbench's serve launcher wraps service.forward.
from .mol_net import MolModel, Scanner, forward, param_count  # noqa: F401
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
    key: bytes  # the result cache's key for these ids
    probs: np.ndarray | None = None
    error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.probs is not None or self.error is not None


class PredictionService:
    """Immutable model + vocabulary behind the predict/config operations.

    One Scanner is shared by every in-flight request and stepped by one of
    their threads. A request that misses the cache queues its row; a thread
    that finds no leader becomes it, admits queued rows between blocks and
    advances until its own row is done, then gives the scan up to a waiting
    thread (leader/follower). One condition guards the result cache, the
    queue, the slot map, the leader flag and requests_served. The scanner
    is touched only by the current leader, which advances it outside the
    condition.
    """

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
        self._scanner = Scanner(model)
        self._scanner.check_batch_invariance()
        self._cond = threading.Condition()
        self._cache: OrderedDict[bytes, np.ndarray] = OrderedDict()  # LRU, oldest first
        self._queued: list[_Request] = []
        self._rows: dict[int, _Request] = {}  # scanner slot -> its request
        self._leading = False
        self._cell_keys = [json.dumps(name) + ": " for name in model.class_names]
        self.requests_served = 0

    def config_document(self) -> str:
        doc = {
            "classes": self.model.class_names,
            "max_sequence_length": self.model.stem.max_sequence_length,
            "vocab_fingerprint": self.model.vocab_fingerprint,
            "n_parameters": param_count(self.model),
        }
        return json.dumps(doc)

    def predict_probabilities(self, hex_text: str) -> np.ndarray:
        """Training-identical preprocessing, then the cached row or a row of the shared scan.

        The returned array is read-only: a hit hands every caller the same one.
        """
        tokens = preprocess(hex_text)
        seq = encode(tokens, self.vocab, self.model.stem.max_sequence_length)
        request = _Request(seq.ids, hashlib.sha256(seq.ids[: seq.true_length].tobytes()).digest())
        with self._cond:
            probs = self._cache.get(request.key)
            if probs is not None:
                self._cache.move_to_end(request.key)
                return probs
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
        """Step the scan until `own` is done; each finished row is cached as it is handed over."""
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
                finished = self._scanner.advance(self._queued.__len__)
                if finished:
                    with self._cond:
                        for slot, probs in finished:
                            request = self._rows.pop(slot)
                            request.probs = probs = probs.copy()  # not a view into the scan's batch
                            probs.flags.writeable = False
                            self._cache[request.key] = probs
                            self._cache.move_to_end(request.key)
                            if len(self._cache) > CACHE_ENTRIES:
                                self._cache.popitem(last=False)
                        self._cond.notify_all()
        except BaseException as exc:
            # The scan's state is unknown: fail every request in it or
            # queued for it, and start a fresh scan.
            with self._cond:
                for request in [*self._rows.values(), *self._queued]:
                    request.error = EvmGuardError(f"prediction scan failed: {exc!r}")
                self._rows.clear()
                self._queued.clear()
                self._scanner = Scanner(self.model)
            raise

    def predict_document(self, hex_text: str) -> str:
        started = self.timer()
        probs = self.predict_probabilities(hex_text)
        elapsed = self.timer() - started
        with self._cond:
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


class _Refusal(Exception):
    """An error answer: its status, its message, and whether the connection ends after it.

    With close False the connection ends only if the request asked for that.
    """

    def __init__(self, status: int, message: str, close: bool = True):
        super().__init__(message)
        self.status = status
        self.close = close


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date() -> str:
    """The current time as an RFC 9110 IMF-fixdate, whatever the locale."""
    t = time.gmtime()
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _Handler(socketserver.StreamRequestHandler):
    """One connection: reads each request off the socket and answers it in one write.

    Every answer is a JSON document; every error answer is a _Refusal,
    raised wherever the request is refused and sent by handle() alone.
    """

    # Each answer is one write, but with Nagle on, a write that follows one
    # the client has not yet acknowledged (an answer after a 100 Continue,
    # or pipelined answers) would wait for its delayed ACK, about 40 ms.
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_S

    def handle(self):
        """Answer requests until one ends the connection, the client hangs up or a read stalls."""
        try:
            while line := self.rfile.readline(MAX_LINE_BYTES + 1):
                self.close_connection = True  # until the head says otherwise
                try:
                    if len(line) > MAX_LINE_BYTES:
                        raise _Refusal(414, "Request-URI Too Long")
                    self._read_head(line)
                    # looked up per request: perfbench's serve launcher rebinds do_POST
                    answer = getattr(self, "do_" + self.command, None)
                    if answer is None:
                        raise _Refusal(501, f"Unsupported method ({self.command!r})")
                    answer()
                except _Refusal as refusal:
                    self._send(refusal.status, json.dumps({"error": str(refusal)}), refusal.close)
                if self.close_connection:
                    break
        except (ConnectionError, TimeoutError):  # no one left to answer, or a silent client
            pass

    def _read_head(self, line: bytes) -> None:
        """Split the request line and read at most MAX_HEADERS header lines into a _Headers."""
        words = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refusal(400, "request line is not `METHOD PATH HTTP/1.0|HTTP/1.1`")
        self.command, self.path, self.request_version = words
        self.headers = headers = _Headers()
        for count in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _Refusal(431, f"header line longer than {MAX_LINE_BYTES} bytes")
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                raise _Refusal(431, f"more than {MAX_HEADERS} headers")
            text = line.decode("latin-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            name = name.lower()
            if not colon or not name or name != name.strip():
                raise _Refusal(400, f"malformed header line {text[:80]!r}")
            if name not in headers:
                headers[name] = value.strip(" \t")
            elif name == "content-length":
                raise _Refusal(400, "more than one Content-Length")
            # of any other repeated header, the first value is the one read
        if "transfer-encoding" in headers:
            raise _Refusal(501, "Transfer-Encoding is not supported")
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive"
        )

    def _send(self, status: int, body: str, close: bool = False) -> None:
        payload = body.encode("utf-8")
        self.close_connection = close = close or self.close_connection
        if close:
            connection = "Connection: close\r\n"
        elif self.request_version == "HTTP/1.0":  # kept open only because it asked
            connection = "Connection: keep-alive\r\n"
        else:
            connection = ""
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: evmguard\r\nDate: {_http_date()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            f"{connection}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + payload)

    def _read_body(self) -> bytes:
        """The request body; a refusal here ends the connection, its stream off a request boundary.

        An `Expect: 100-continue` gets its interim answer only once the body
        is going to be read.
        """
        text = self.headers.get("Content-Length")
        if text is None:
            raise _Refusal(411, "Content-Length is required")
        if not (text.isascii() and text.isdigit()):
            raise _Refusal(400, f"Content-Length {text!r} is not a byte count")
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise _Refusal(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        expect = self.headers.get("expect", "").lower()
        if self.request_version == "HTTP/1.1" and expect == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise _Refusal(408, f"request body not received within {self.timeout} s")
        if len(body) < length:
            raise _Refusal(400, f"request body ended after {len(body)} of {length} bytes")
        return body

    def do_GET(self):
        if self.path != "/config":
            raise _Refusal(404, f"no such endpoint {self.path!r}", close=False)
        self._send(200, self.server.service.config_document())

    def do_POST(self):
        if self.path != "/predict":  # its body is left unread, so the connection ends
            raise _Refusal(404, f"no such endpoint {self.path!r}")
        body = self._read_body()
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _Refusal(400, f"request body is not valid JSON: {exc}", close=False)
        if not isinstance(request, dict) or set(request) != {REQUEST_FIELD}:
            raise _Refusal(
                400, f"request must have exactly one field named {REQUEST_FIELD!r}", close=False
            )
        if not isinstance(request[REQUEST_FIELD], str):
            raise _Refusal(400, f"{REQUEST_FIELD!r} must be a hex string", close=False)
        try:
            document = self.server.service.predict_document(request[REQUEST_FIELD])
        except MalformedInputError as exc:
            raise _Refusal(400, str(exc), close=False)
        except EvmGuardError as exc:
            raise _Refusal(500, str(exc), close=False)
        self._send(200, document)


class _Server(socketserver.ThreadingTCPServer):
    """A thread per connection, each answering with _Handler; binds without a name lookup."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: PredictionService):
        self.service = service
        super().__init__(address, _Handler)


def make_server(service: PredictionService, host: str, port: int) -> _Server:
    """Bound but not yet serving; call serve_forever() or run it in a thread."""
    return _Server((host, port), service)


def serve(service: PredictionService, host: str = "127.0.0.1", port: int = 8000) -> None:
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
