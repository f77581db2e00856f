"""Prediction service: document formatting, config, and the HTTP surface."""

import contextlib
import http.client
import json
import re
import socket
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard import mol_net
from evmguard import service as service_module
from evmguard.errors import ConfigError, EvmGuardError, MalformedInputError
from evmguard.evm_bytecode import preprocess
from evmguard.mol_net import BranchConfig, StemConfig, forward, init_model
from evmguard.service import (
    MAX_BODY_BYTES,
    PREDICTION_KEY,
    REQUEST_FIELD,
    TIMING_KEY,
    PredictionService,
    make_server,
)
from evmguard.tokenizer import encode, fit


class FakeTimer:
    """Returns 0.0, 0.02, 0.0, 0.02, ... so each elapsed time is 0.02 s."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        value = 0.0 if self.calls % 2 == 0 else 0.02
        self.calls += 1
        return value


def make_service(raw=False, timer=None, max_sequence_length=16, vocab_size=None):
    corpus = [["60", "60", "52"], ["f1", "ff"], ["54", "55", "00"]]
    vocab = fit(corpus)
    stem = StemConfig(
        vocab_size=vocab_size or len(vocab), embedding_dim=3, gru_hidden=4,
        dropout_rate=0.2, max_sequence_length=max_sequence_length,
    )
    model = init_model(
        stem, [BranchConfig("alpha", (3, 1)), BranchConfig("beta", (3, 1))], seed=0
    )
    model.vocab_fingerprint = vocab.fingerprint()
    kwargs = {} if timer is None else {"timer": timer}
    return PredictionService(model, vocab, raw=raw, **kwargs), model, vocab


class TestConstructor:
    def test_missing_fingerprint_rejected(self):
        service, model, vocab = make_service()
        model.vocab_fingerprint = None
        with pytest.raises(ConfigError):
            PredictionService(model, vocab)

    def test_fingerprint_mismatch_rejected(self):
        service, model, vocab = make_service()
        other = fit([["aa", "bb"]])
        with pytest.raises(ConfigError):
            PredictionService(model, other)


class TestConfigDocument:
    def test_fields(self):
        service, model, vocab = make_service()
        doc = json.loads(service.config_document())
        assert doc["classes"] == ["alpha", "beta"]
        assert doc["max_sequence_length"] == 16
        assert doc["vocab_fingerprint"] == vocab.fingerprint()
        assert doc["n_parameters"] == sum(a.size for a in model.params.values())


class TestPredictDocument:
    def test_golden_bytes_for_empty_contract(self):
        # all-padding input through a fresh model is exactly 0.5 everywhere
        service, _, _ = make_service(timer=FakeTimer())
        document = service.predict_document("0x")
        assert document == (
            '{"prediction": {"alpha": 0.5000, "beta": 0.5000},'
            ' "prediction_time in_second": "0.02"}'
        )

    def test_literal_key_spellings(self):
        service, _, _ = make_service(timer=FakeTimer())
        doc = json.loads(service.predict_document("6001"))
        assert set(doc) == {PREDICTION_KEY, TIMING_KEY}
        assert PREDICTION_KEY == "prediction"
        assert TIMING_KEY == "prediction_time in_second"
        assert isinstance(doc[TIMING_KEY], str)
        assert doc[TIMING_KEY] == "0.02"
        assert set(doc[PREDICTION_KEY]) == {"alpha", "beta"}

    def test_probabilities_rounded_to_four_decimals(self):
        service, _, _ = make_service(timer=FakeTimer())
        doc = json.loads(service.predict_document("6060604052f1ff"))
        probs = service.predict_probabilities("6060604052f1ff")
        for name, shown in zip(["alpha", "beta"], probs):
            assert doc[PREDICTION_KEY][name] == pytest.approx(
                float(shown), abs=5e-5
            )
            assert doc[PREDICTION_KEY][name] == round(doc[PREDICTION_KEY][name], 4)

    def test_raw_mode_keeps_full_precision(self):
        service, _, _ = make_service(raw=True, timer=FakeTimer())
        doc = json.loads(service.predict_document("6060604052f1ff"))
        probs = service.predict_probabilities("6060604052f1ff")
        for name, p in zip(["alpha", "beta"], probs):
            assert doc[PREDICTION_KEY][name] == float(p)

    def test_matches_library_forward(self):
        service, model, vocab = make_service()
        hex_text = "6060604052f1ff5455"
        seq = encode(preprocess(hex_text), vocab, model.stem.max_sequence_length)
        expected = forward(model, seq.ids[None, :], mode="eval")[0]
        np.testing.assert_array_equal(service.predict_probabilities(hex_text), expected)

    def test_request_counter(self):
        service, _, _ = make_service(timer=FakeTimer())
        service.predict_document("0x")
        service.predict_document("0x")
        assert service.requests_served == 2


@contextlib.contextmanager
def serving(service):
    """`service` behind a live server; yields its port."""
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def http_service():
    service, model, vocab = make_service(timer=FakeTimer())
    with serving(service) as port:
        yield service, port


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


class TestHttp:
    def test_get_config(self, http_service):
        service, port = http_service
        status, body = request(port, "GET", "/config")
        assert status == 200
        assert body == service.config_document()

    def test_predict_round_trip_is_byte_exact(self, http_service):
        service, port = http_service
        payload = json.dumps({REQUEST_FIELD: "6060604052"})
        status, body = request(port, "POST", "/predict", payload)
        assert status == 200
        assert TIMING_KEY in json.loads(body)
        assert body == service.predict_document("6060604052")

    def test_empty_contract_accepted(self, http_service):
        _, port = http_service
        status, body = request(port, "POST", "/predict", json.dumps({REQUEST_FIELD: "0x"}))
        assert status == 200
        assert set(json.loads(body)[PREDICTION_KEY]) == {"alpha", "beta"}

    def test_bad_json_is_400(self, http_service):
        _, port = http_service
        status, body = request(port, "POST", "/predict", "{not json")
        assert status == 400
        assert "error" in json.loads(body)

    def test_wrong_field_name_is_400(self, http_service):
        _, port = http_service
        status, _ = request(port, "POST", "/predict", json.dumps({"contract": "0x"}))
        assert status == 400

    def test_extra_field_is_400(self, http_service):
        _, port = http_service
        payload = json.dumps({REQUEST_FIELD: "0x", "other": 1})
        status, _ = request(port, "POST", "/predict", payload)
        assert status == 400

    def test_non_string_value_is_400(self, http_service):
        _, port = http_service
        status, _ = request(port, "POST", "/predict", json.dumps({REQUEST_FIELD: 7}))
        assert status == 400

    def test_invalid_hex_is_400(self, http_service):
        _, port = http_service
        payload = json.dumps({REQUEST_FIELD: "60zz"})
        status, body = request(port, "POST", "/predict", payload)
        assert status == 400
        assert "error" in json.loads(body)

    def test_unknown_paths_are_404(self, http_service):
        _, port = http_service
        assert request(port, "GET", "/nope")[0] == 404
        assert request(port, "POST", "/nope", "{}")[0] == 404

    def test_concurrent_identical_requests_agree(self, http_service):
        _, port = http_service
        payload = json.dumps({REQUEST_FIELD: "6060604052f1ff"})
        results = []
        lock = threading.Lock()

        def worker():
            status, body = request(port, "POST", "/predict", payload)
            with lock:
                results.append((status, json.loads(body)[PREDICTION_KEY]))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        first = results[0][1]
        assert all(pred == first for _, pred in results)

    def test_binds_and_answers_without_a_name_lookup(self, monkeypatch):
        # a host whose resolver hangs would hold start-up for as long
        def no_resolver(*args):
            raise OSError("no resolver")

        monkeypatch.setattr(socket, "getfqdn", no_resolver)
        service, _, _ = make_service()
        with serving(service) as port:
            assert request(port, "GET", "/config")[0] == 200

    def test_keep_alive_connection_has_nagle_off(self, http_service, monkeypatch):
        # An answer is one write, but with Nagle on, one that follows an
        # unacknowledged write (a 100 Continue, a pipelined answer) would
        # wait for the client's delayed ACK.
        _, port = http_service
        seen = []
        handle = service_module._Handler.handle

        def spy(handler):
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handle(handler)

        monkeypatch.setattr(service_module._Handler, "handle", spy)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            for _ in range(2):
                conn.request("POST", "/predict", json.dumps({REQUEST_FIELD: "6001"}))
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
        finally:
            conn.close()
        assert len(seen) == 1  # both requests rode one connection
        assert seen[0] != 0


# Contracts of 0-300 opcodes built from the fixture vocabulary plus unknown
# bytes, each distinct, so concurrent scans join and leave at different steps.
def distinct_contracts(n, seed=0):
    rng = np.random.default_rng(seed)
    ops = ["6001", "52", "f1", "ff", "54", "55", "00", "0c"]
    return [
        "".join(rng.choice(ops, size=int(k))) + f"60{i:02x}"
        for i, k in enumerate(rng.integers(0, 300, size=n))
    ]


def run_threads(target, args_list):
    threads = [threading.Thread(target=target, args=args) for args in args_list]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)


class TestSharedScan:
    def test_lone_request_runs_on_the_callers_thread(self, monkeypatch):
        service, model, vocab = make_service()
        seen = set()
        advance = mol_net.Scanner.advance

        def spy(scanner, stop):
            seen.add(threading.get_ident())
            return advance(scanner, stop)

        monkeypatch.setattr(mol_net.Scanner, "advance", spy)
        before = threading.active_count()
        service.predict_probabilities("6060604052f1ff")
        assert seen == {threading.get_ident()}
        assert threading.active_count() == before

    def test_concurrent_http_documents_equal_solo_documents(self):
        service, _, _ = make_service(timer=lambda: 0.0, max_sequence_length=400)
        contracts = distinct_contracts(8)
        # solo documents from a service of its own, so the concurrent ones miss its cache
        solo_service, _, _ = make_service(timer=lambda: 0.0, max_sequence_length=400)
        alone = [solo_service.predict_document(c) for c in contracts]
        got = [None] * len(contracts)

        def post(i, port):
            got[i] = request(port, "POST", "/predict", json.dumps({REQUEST_FIELD: contracts[i]}))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(service) as port:
                run_threads(post, [(i, port) for i in range(len(contracts))])
        finally:
            sys.setswitchinterval(old)
        assert got == [(200, doc) for doc in alone]

    def test_many_threads_share_one_scan_with_solo_numbers(self, monkeypatch):
        service, model, vocab = make_service(max_sequence_length=600)
        contracts = distinct_contracts(24, seed=1)
        ids = [encode(preprocess(c), vocab, 600).ids for c in contracts]
        alone = [forward(model, row[None, :])[0] for row in ids]
        slots = []
        admit = mol_net.Scanner.admit

        def spy(scanner, ids):
            slots.append(admit(scanner, ids))
            return slots[-1]

        monkeypatch.setattr(mol_net.Scanner, "admit", spy)
        got = [None] * len(contracts)
        start = threading.Barrier(12)

        def worker(k):
            start.wait(timeout=30)
            for i in range(k, len(contracts), 12):
                got[i] = service.predict_probabilities(contracts[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(worker, [(k,) for k in range(12)])
        finally:
            sys.setswitchinterval(old)
        assert max(slots) >= 2  # rows were in flight together
        for want, have in zip(alone, got):
            assert have.tobytes() == want.tobytes()

    def test_bad_row_fails_only_its_own_request(self):
        # a model whose stem covers fewer ids than its vocabulary assigns
        service, model, vocab = make_service(vocab_size=4)
        assert vocab.id_of("ff") >= 4
        with pytest.raises(MalformedInputError):
            service.predict_probabilities("ff")
        assert service.predict_probabilities("6060").shape == (2,)

    def test_failure_reaches_every_waiting_request(self):
        service = make_service()[0]
        waiting = service_module._Request(np.zeros(16, dtype=np.int32), b"waiting")
        service._queued.append(waiting)

        class Exploding:
            def admit(self, ids):
                raise RuntimeError("boom")

        service._scanner = Exploding()
        with pytest.raises(RuntimeError):
            service.predict_probabilities("6060")
        assert isinstance(waiting.error, EvmGuardError)
        assert service.predict_probabilities("6060").shape == (2,)

    def test_hit_is_answered_while_a_long_row_is_scanned(self, monkeypatch):
        service, model, vocab = make_service(max_sequence_length=4000)
        cached = service.predict_probabilities("6060604052")
        ops = ["6001", "52", "f1", "ff", "54", "55", "00", "0c"]
        long_contract = "".join(np.random.default_rng(3).choice(ops, size=3000))
        scanning, answered = threading.Event(), threading.Event()
        hit_in_time = []
        advance = mol_net.Scanner.advance

        def held(scanner, stop):
            if not scanning.is_set():  # hold the long row's first block until the hit is answered
                scanning.set()
                hit_in_time.append(answered.wait(timeout=10))
            return advance(scanner, stop)

        monkeypatch.setattr(mol_net.Scanner, "advance", held)
        got = []
        leader = threading.Thread(target=lambda: got.append(service.predict_probabilities(long_contract)))
        leader.start()
        try:
            assert scanning.wait(timeout=10)
            assert service.predict_probabilities("6060604052") is cached
        finally:
            answered.set()
            leader.join(timeout=60)
        assert not leader.is_alive()
        assert hit_in_time == [True]  # the hit did not wait for the scan
        seq = encode(preprocess(long_contract), vocab, 4000)
        assert seq.true_length == 3000
        assert got[0].tobytes() == forward(model, seq.ids[None, :])[0].tobytes()


def raw_exchange(port, data, shut_write=False):
    """Send raw bytes; returns (status, body) of the reply, which must come within 2 s."""
    with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
        sock.sendall(data)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):  # the server closes the connection after answering
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"connection: close" in head.lower()
    return int(head.split(b" ", 2)[1]), json.loads(body)


def post_head(length_header):
    return b"POST /predict HTTP/1.1\r\nHost: localhost\r\n" + length_header + b"\r\n"


class TestHttpBodyFraming:
    @pytest.mark.parametrize("length", [b"-1", b"abc", b"+5", b"1e3", b""])
    def test_bad_length_is_400(self, http_service, length):
        _, port = http_service
        status, body = raw_exchange(port, post_head(b"Content-Length: " + length + b"\r\n"))
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_missing_length_is_411(self, http_service):
        _, port = http_service
        assert raw_exchange(port, post_head(b""))[0] == 411

    def test_length_over_the_cap_is_413_without_reading_the_body(self, http_service):
        _, port = http_service
        head = post_head(f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode())
        assert raw_exchange(port, head)[0] == 413

    def test_cap_admits_the_largest_initcode(self):
        # EIP-3860: 49,152 bytes of initcode, sent as 0x-prefixed hex in the JSON body
        body = json.dumps({REQUEST_FIELD: "0x" + "00" * 49_152})
        assert len(body.encode()) <= MAX_BODY_BYTES

    def test_body_shorter_than_its_length_is_400(self, http_service):
        _, port = http_service
        data = post_head(b"Content-Length: 100\r\n") + b'{"smart_contract": "60"}'
        status, body = raw_exchange(port, data, shut_write=True)
        assert status == 400
        assert "ended after 24 of 100 bytes" in body["error"]

    def test_stalled_body_is_408_after_the_read_timeout(self, http_service, monkeypatch):
        monkeypatch.setattr(service_module._Handler, "timeout", 0.3)
        _, port = http_service
        data = post_head(b"Content-Length: 100\r\n") + b'{"smart_contract": "60"}'
        assert raw_exchange(port, data)[0] == 408

    def test_post_to_unknown_path_does_not_desync_keep_alive(self, http_service):
        _, port = http_service
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        try:
            conn.request("POST", "/nope", json.dumps({REQUEST_FIELD: "6001"}))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
            conn.request("POST", "/predict", json.dumps({REQUEST_FIELD: "6001"}))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
        finally:
            conn.close()

    def test_connections_have_a_read_timeout(self, http_service, monkeypatch):
        _, port = http_service
        seen = []
        handle = service_module._Handler.handle

        def spy(handler):
            seen.append(handler.connection.gettimeout())
            handle(handler)

        monkeypatch.setattr(service_module._Handler, "handle", spy)
        assert request(port, "GET", "/config")[0] == 200
        assert seen == [service_module.READ_TIMEOUT_S]
        assert 0 < service_module.READ_TIMEOUT_S < float("inf")

    def test_client_hang_up_prints_no_traceback(self, http_service, monkeypatch):
        _, port = http_service
        errors = []
        monkeypatch.setattr(
            service_module._Server, "handle_error",
            lambda server, request, address: errors.append(sys.exc_info()[1]),
        )
        payload = json.dumps({REQUEST_FIELD: "6060604052"}).encode()
        whole = post_head(f"Content-Length: {len(payload)}\r\n".encode()) + payload
        short = post_head(b"Content-Length: 100\r\n") + payload
        for data in (whole, short):
            sock = socket.create_connection(("127.0.0.1", port), timeout=2)
            sock.sendall(data)
            # close with a reset, before reading any reply
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
        assert request(port, "POST", "/predict", payload)[0] == 200  # still serving
        assert errors == []


EIP1167_HEAD = "363d3d373d3d3d363d73"
EIP1167_TAIL = "5af43d82803e903d91602b57fd5bf3"


def proxy_clone(address: bytes) -> str:
    """EIP-1167 minimal proxy runtime code for a 20-byte target address."""
    return EIP1167_HEAD + address.hex() + EIP1167_TAIL


def count_admits(monkeypatch):
    """The ids of every row the shared scan admits from now on."""
    admitted = []
    admit = mol_net.Scanner.admit

    def spy(scanner, ids):
        admitted.append(np.array(ids))
        return admit(scanner, ids)

    monkeypatch.setattr(mol_net.Scanner, "admit", spy)
    return admitted


OPS = ["6001", "52", "f1", "ff", "54", "55", "00", "0c", "7f"]


class TestResultCache:
    @settings(max_examples=60, deadline=None)
    @given(contract=st.lists(st.sampled_from(OPS), max_size=90).map("".join))
    def test_hit_is_bit_identical_to_miss_and_forward(self, contract):
        service, model, vocab = make_service(timer=lambda: 0.0, max_sequence_length=64)
        miss = service.predict_document(contract)
        probs = service.predict_probabilities(contract)
        assert service.predict_document(contract) == miss
        assert service.predict_probabilities(contract) is probs  # served from the cache
        seq = encode(preprocess(contract), vocab, 64)
        assert probs.tobytes() == forward(model, seq.ids[None, :])[0].tobytes()

    def test_proxy_clones_cost_one_scan_row(self, monkeypatch):
        service, _, _ = make_service(timer=lambda: 0.0, max_sequence_length=64)
        admitted = count_admits(monkeypatch)
        first = service.predict_document(proxy_clone(bytes(range(20))))
        second = service.predict_document(proxy_clone(bytes(range(100, 120))))
        assert first == second
        assert len(admitted) == 1
        service.predict_document("6060604052")
        assert len(admitted) == 2

    def test_lru_keeps_its_bound_and_evicts_the_oldest(self, monkeypatch):
        monkeypatch.setattr(service_module, "CACHE_ENTRIES", 3)
        service, _, _ = make_service()
        admitted = count_admits(monkeypatch)
        a, b, c, d = ("52" * k for k in range(1, 5))  # distinct token-id sequences
        misses = []
        for contract in (a, b, c, a, d, c, a, d, b, c):
            before = len(admitted)
            service.predict_probabilities(contract)
            misses.append(len(admitted) > before)
            assert len(service._cache) <= 3
        # d evicts b (a was used since), then b evicts c
        assert misses == [True, True, True, False, True, False, False, False, True, True]

    def test_errors_are_not_cached(self, monkeypatch):
        service, _, vocab = make_service(vocab_size=4)
        assert vocab.id_of("ff") >= 4  # a row the scan rejects at admission
        admitted = count_admits(monkeypatch)
        for _ in range(2):
            with pytest.raises(MalformedInputError):
                service.predict_probabilities("ff")
        assert len(admitted) == 2
        with pytest.raises(MalformedInputError):
            service.predict_probabilities("60zz")
        assert len(service._cache) == 0

    def test_returned_rows_are_read_only_copies(self):
        service, _, _ = make_service()
        miss = service.predict_probabilities("6060604052")
        assert service.predict_probabilities("6060604052") is miss
        assert miss.flags.owndata and not miss.flags.writeable
        with pytest.raises(ValueError):
            miss[0] = 1.0

    def test_threads_posting_repeated_and_distinct_contracts_get_solo_documents(self):
        contracts = distinct_contracts(6, seed=2) + [proxy_clone(bytes([k] * 20)) for k in range(4)]
        alone = [
            make_service(timer=lambda: 0.0, max_sequence_length=400)[0].predict_document(c)
            for c in contracts
        ]
        service, _, _ = make_service(timer=lambda: 0.0, max_sequence_length=400)
        got = {}

        def post(k, port):
            for j in range(2 * len(contracts)):
                i = (j + k) % len(contracts)
                got[k, j] = (i, request(port, "POST", "/predict", json.dumps({REQUEST_FIELD: contracts[i]})))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(service) as port:
                run_threads(post, [(k, port) for k in range(8)])
        finally:
            sys.setswitchinterval(old)
        assert len(got) == 8 * 2 * len(contracts)
        for i, answer in got.values():
            assert answer == (200, alone[i])


class TestBatchInvarianceSelfCheck:
    def test_skewed_step_is_rejected(self, monkeypatch):
        step = mol_net._gru_step

        def skewed(x_zr, x_c, h_t, scan, bufs, h_new):
            h_new, zr, c = step(x_zr, x_c, h_t, scan, bufs, h_new)
            if len(h_t) == 3:  # one ulp off, only in a product of 3 rows
                zr = np.nextafter(zr, np.inf)
            return h_new, zr, c

        monkeypatch.setattr(mol_net, "_gru_step", skewed)
        with pytest.raises(ConfigError, match="2 and 3 rows"):
            make_service()

    def test_skewed_head_pre_activation_is_rejected(self, monkeypatch):
        heads = mol_net._branch_heads

        def skewed(stem_out, stacked):
            probs, inputs, pre = heads(stem_out, stacked)
            if len(stem_out) == 3:  # the final sigmoid may round this ulp away
                pre[-1][-1] = np.nextafter(pre[-1][-1], np.inf)
            return probs, inputs, pre

        monkeypatch.setattr(mol_net, "_branch_heads", skewed)
        with pytest.raises(ConfigError, match="2 and 3 rows"):
            make_service()

    def test_default_model_passes(self):
        stem = StemConfig(vocab_size=78, embedding_dim=16, gru_hidden=64, max_sequence_length=64)
        names = [f"class_{k}" for k in range(8)]
        model = init_model(stem, [BranchConfig(n) for n in names], seed=3)
        mol_net.Scanner(model).check_batch_invariance()


def old_document(names, probs, elapsed, raw):
    """The document as formatted before the cells were precomputed: per cell, per request."""
    if raw:
        cells = ", ".join(f"{json.dumps(name)}: {json.dumps(float(p))}" for name, p in zip(names, probs))
    else:
        cells = ", ".join(f"{json.dumps(name)}: {p:.4f}" for name, p in zip(names, probs))
    return '{"prediction": {' + cells + '}, "prediction_time in_second": "' + f"{elapsed:.2f}" + '"}'


def escaped_name_service(raw):
    """A service whose class names need JSON escapes."""
    vocab = fit([["60", "52", "f1", "ff", "54", "55", "00"]])
    stem = StemConfig(vocab_size=len(vocab), embedding_dim=3, gru_hidden=4, max_sequence_length=32)
    names = ['al"pha', "bëta", "γ\\n/x"]
    model = init_model(stem, [BranchConfig(n, (3, 1)) for n in names], seed=5)
    model.vocab_fingerprint = vocab.fingerprint()
    return PredictionService(model, vocab, raw=raw, timer=FakeTimer()), names


class TestGoldenDocuments:
    @pytest.mark.parametrize("raw", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(contract=st.lists(st.sampled_from(OPS), max_size=40).map("".join))
    def test_documents_equal_the_per_cell_formatter(self, raw, contract):
        service, names = escaped_name_service(raw)
        probs = service.predict_probabilities(contract)
        assert probs.dtype == np.float32
        assert service.predict_document(contract) == old_document(names, probs, 0.02, raw)

    @pytest.mark.parametrize("raw", [False, True])
    def test_served_documents_equal_the_per_cell_formatter(self, raw):
        service, names = escaped_name_service(raw)
        with serving(service) as port:
            for contract in ("0x", "6060604052f1ff", "ff" * 40):
                status, body = request(port, "POST", "/predict", json.dumps({REQUEST_FIELD: contract}))
                probs = service.predict_probabilities(contract)
                assert (status, body) == (200, old_document(names, probs, 0.02, raw))

    def test_float32_and_float_format_alike_at_rounding_boundaries(self):
        # every k/10^4 + 5/10^5 in [0, 1], and the float32 values on either side of it
        halves = (np.arange(10_001) / 10_000 + 0.00005).astype(np.float32)
        values = np.concatenate(
            [halves, np.nextafter(halves, 0), np.nextafter(halves, 1), [0.0, 1.0, 1e-45]]
        ).astype(np.float32)
        for p, q in zip(values, values.tolist()):
            assert f"{p:.4f}" == f"{q:.4f}"
            assert json.dumps(float(p)) == json.dumps(q)


def read_answers(reply):
    """Split a reply stream into (status, lowercased headers, body) answers.

    Fails unless every answer is a well-formed HTTP/1.1 one: a status line,
    headers, and, past a 100 Continue, a JSON body of its Content-Length.
    """
    answers = []
    while reply:
        head, blank, reply = reply.partition(b"\r\n\r\n")
        assert blank, f"unterminated head {head[:200]!r}"
        status_line, *lines = head.split(b"\r\n")
        assert re.fullmatch(rb"HTTP/1\.1 [1-5]\d\d [ A-Za-z-]+", status_line), status_line
        status = int(status_line.split(b" ")[1])
        fields = dict(line.lower().split(b": ", 1) for line in lines)
        if status == 100:
            assert fields == {}
            continue
        length = int(fields[b"content-length"])
        body, reply = reply[:length], reply[length:]
        answers.append((status, fields, json.loads(body)))
        assert fields.get(b"connection") != b"close" or not reply  # nothing follows a close
    return answers


def exchange(port, data, timeout=5):
    """Send `data`, half-close, and return every answer up to the server's close."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return read_answers(reply)


def mixed_case(name):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(name, upper))
    )


HEADER_NAMES = ["Content-Length", "Connection", "Expect", "Transfer-Encoding", "Host", "X-Request-Id"]
HEADER_VALUES = ["24", "3", "-1", "close", "keep-alive", "100-continue", "chunked", "", " 24 ", "x"]
HEADER_LINES = st.tuples(st.sampled_from(HEADER_NAMES).flatmap(mixed_case), st.sampled_from(HEADER_VALUES)).map(
    lambda nv: f"{nv[0]}: {nv[1]}\r\n".encode()
)
FRAGMENTS = st.sampled_from([
    b"GET /config HTTP/1.1\r\n", b"POST /predict HTTP/1.1\r\n", b"GET /config HTTP/1.0\r\n",
    b"POST /nope HTTP/1.1\r\n", b"PUT /predict HTTP/1.1\r\n", b"GET /config\r\n", b"GET /config HTTP/2.0\r\n",
    b"GET  /config HTTP/1.1\r\n", b"get /config http/1.1\r\n", b" folded\r\n", b"\tfolded: too\r\n",
    b"NoColon\r\n", b": no name\r\n", b"Host : spaced\r\n", b"\r\n", b"\n",
    b'{"smart_contract": "6060"}', b"0\r\n\r\n",
])
REQUEST_BYTES = st.lists(st.one_of(FRAGMENTS, HEADER_LINES, st.binary(max_size=30)), max_size=14).map(b"".join)


@pytest.fixture()
def served_errors(http_service, monkeypatch):
    """A served model and the list every handle_error call lands in."""
    errors = []
    monkeypatch.setattr(
        service_module._Server, "handle_error",
        lambda server, request, address: errors.append(sys.exc_info()[1]),
    )
    return http_service[1], errors


class TestHttpRequestParsing:
    def test_any_request_bytes_get_well_formed_answers_then_a_close(self, served_errors):
        port, errors = served_errors

        @settings(max_examples=200, deadline=None)
        @given(data=REQUEST_BYTES)
        def check(data):
            for status, fields, document in exchange(port, data):
                assert (status < 400) or set(document) == {"error"}
            assert errors == []

        check()

    def test_two_content_lengths_are_400(self, http_service):
        _, port = http_service
        body = b'{"smart_contract": "60"}'
        data = post_head(b"Content-Length: 24\r\nContent-Length: 5\r\n") + body
        status, document = raw_exchange(port, data, shut_write=True)
        assert status == 400
        assert "Content-Length" in document["error"]

    @pytest.mark.parametrize("coding", [b"chunked", b"identity", b"gzip, chunked"])
    def test_any_transfer_encoding_is_501(self, http_service, coding):
        _, port = http_service
        data = post_head(b"Transfer-Encoding: " + coding + b"\r\nContent-Length: 5\r\n") + b"0\r\n\r\n"
        status, document = raw_exchange(port, data, shut_write=True)
        assert status == 501
        assert "Transfer-Encoding" in document["error"]

    def test_unknown_method_is_a_json_501(self, http_service):
        _, port = http_service
        data = b"PUT /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        status, document = raw_exchange(port, data, shut_write=True)
        assert status == 501
        assert "PUT" in document["error"]

    @pytest.mark.parametrize("line", [
        b"GET /config\r\n", b"GET /config HTTP/2.0\r\n", b"GET /config HTTP/1.1 x\r\n",
        b"GET  /config HTTP/1.1\r\n", b"\r\n", b"\x00\xff garbage\r\n",
    ])
    def test_bad_request_line_is_400_at_once(self, http_service, line):
        # no half-close: an HTTP/0.9 line used to hold the connection until the read timeout
        _, port = http_service
        status, document = raw_exchange(port, line)
        assert status == 400
        assert "request line" in document["error"]

    @pytest.mark.parametrize("line", [b" folded\r\n", b"\tfolded\r\n", b"NoColon\r\n", b": x\r\n", b"Host : a\r\n"])
    def test_malformed_header_line_is_400(self, http_service, line):
        _, port = http_service
        status, document = raw_exchange(port, b"GET /config HTTP/1.1\r\nHost: a\r\n" + line + b"\r\n")
        assert status == 400
        assert "header line" in document["error"]

    def test_request_line_of_65537_bytes_is_414(self, http_service):
        _, port = http_service
        tail = b" HTTP/1.1\r\n"
        line = b"GET /" + b"a" * (65_537 - 5 - len(tail)) + tail
        assert len(line) == 65_537
        status, _ = raw_exchange(port, line, shut_write=True)
        assert status == 414

    def test_header_line_of_65537_bytes_is_431(self, http_service):
        _, port = http_service
        line = b"X-Long: " + b"a" * (65_537 - 10) + b"\r\n"
        assert len(line) == 65_537
        status, document = raw_exchange(port, b"GET /config HTTP/1.1\r\n" + line, shut_write=True)
        assert status == 431
        assert "header line" in document["error"]

    def test_header_line_of_65536_bytes_is_read(self, http_service):
        _, port = http_service
        line = b"X-Long: " + b"a" * (65_536 - 10) + b"\r\n"
        data = b"GET /config HTTP/1.1\r\n" + line + b"Connection: close\r\n\r\n"
        assert [status for status, _, _ in exchange(port, data)] == [200]

    @pytest.mark.parametrize("distinct", [True, False])
    def test_more_than_100_headers_is_431(self, http_service, distinct):
        _, port = http_service
        lines = b"".join(b"X-%d: 1\r\n" % k if distinct else b"X-Same: 1\r\n" for k in range(101))
        status, document = raw_exchange(port, b"GET /config HTTP/1.1\r\n" + lines, shut_write=True)
        assert status == 431
        assert "100 headers" in document["error"]

    def test_100_headers_are_read(self, http_service):
        _, port = http_service
        lines = b"".join(b"X-%d: 1\r\n" % k for k in range(99)) + b"Connection: close\r\n"
        answers = exchange(port, b"GET /config HTTP/1.1\r\n" + lines + b"\r\n")
        assert [status for status, _, _ in answers] == [200]

    def test_expect_100_continue_gets_an_interim_answer_before_the_body(self, http_service):
        service, port = http_service
        body = json.dumps({REQUEST_FIELD: "6060604052"}).encode()
        head = post_head(b"Expect: 100-Continue\r\nConnection: close\r\nContent-Length: %d\r\n" % len(body))
        with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        [(status, _, document)] = read_answers(reply)
        assert status == 200
        assert document == json.loads(service.predict_document("6060604052"))

    @pytest.mark.parametrize("head, status", [
        (post_head(b"Expect: 100-continue\r\nContent-Length: 200000\r\n"), 413),
        (b"GET /config HTTP/1.1\r\nExpect: 100-continue\r\n\r\n", 200),
        (b"POST /nope HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 24\r\n\r\n", 404),
    ], ids=["too-large", "no-body", "unknown-path"])
    def test_expect_100_continue_gets_no_interim_answer_for_a_body_left_unread(
        self, http_service, head, status
    ):
        _, port = http_service
        with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
            sock.sendall(head)
            sock.shutdown(socket.SHUT_WR)  # no body follows; the server closes after its answer
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert [answer[0] for answer in read_answers(reply)] == [status]

    def test_http_1_0_keeps_alive_only_when_asked(self, http_service):
        _, port = http_service
        ask = b"GET /config HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        default = b"GET /config HTTP/1.0\r\n\r\n"
        answers = exchange(port, ask + ask + default + ask)  # the last is never read
        assert [status for status, _, _ in answers] == [200, 200, 200]
        assert [fields.get(b"connection") for _, fields, _ in answers] == [b"keep-alive", b"keep-alive", b"close"]

    def test_connection_close_is_answered_with_close(self, http_service):
        _, port = http_service
        answers = exchange(port, b"GET /config HTTP/1.1\r\nConnection: close\r\n\r\nGET /config HTTP/1.1\r\n\r\n")
        assert [(status, fields[b"connection"]) for status, fields, _ in answers] == [(200, b"close")]

    def test_answer_headers_and_one_write(self, http_service, monkeypatch):
        service, port = http_service
        writes = []
        handle = service_module._Handler.handle

        def spy(handler):
            write = handler.wfile.write
            handler.wfile.write = lambda data: writes.append(bytes(data)) or write(data)
            handle(handler)

        monkeypatch.setattr(service_module._Handler, "handle", spy)
        payload = json.dumps({REQUEST_FIELD: "6060604052"})
        assert request(port, "POST", "/predict", payload)[0] == 200
        assert len(writes) == 1
        head, _, body = writes[0].partition(b"\r\n\r\n")
        status_line, *lines = head.split(b"\r\n")
        assert status_line == b"HTTP/1.1 200 OK"
        assert [line.split(b": ")[0] for line in lines] == [b"Server", b"Date", b"Content-Type", b"Content-Length"]
        assert body == service.predict_document("6060604052").encode()


class TestBenchmarkHooks:
    def test_request_id_header_reads_in_any_case_inside_do_post(self, http_service, monkeypatch):
        # the benchmark tags each traced request by headers.get("X-Request-Id") in do_POST
        _, port = http_service
        seen = []
        do_post = service_module._Handler.do_POST

        def spy(handler):
            seen.append((handler.headers.get("X-Request-Id"), handler.headers.get("x-request-id")))
            do_post(handler)

        monkeypatch.setattr(service_module._Handler, "do_POST", spy)
        payload = json.dumps({REQUEST_FIELD: "6001"})
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            for name, value in (("X-Request-Id", "17"), ("x-REQUEST-id", "18")):
                conn.request("POST", "/predict", payload, headers={name: value})
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
        finally:
            conn.close()
        assert seen == [("17", "17"), ("18", "18")]
