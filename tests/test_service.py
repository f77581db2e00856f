"""Prediction service: document formatting, config, and the HTTP surface."""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from evmguard import service as service_module
from evmguard.errors import ConfigError
from evmguard.evm_bytecode import preprocess
from evmguard.mol_net import BranchConfig, StemConfig, forward, init_model
from evmguard.service import (
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


def make_service(raw=False, timer=None):
    corpus = [["60", "60", "52"], ["f1", "ff"], ["54", "55", "00"]]
    vocab = fit(corpus)
    stem = StemConfig(
        vocab_size=len(vocab), embedding_dim=3, gru_hidden=4,
        dropout_rate=0.2, max_sequence_length=16,
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


@pytest.fixture()
def http_service():
    service, model, vocab = make_service(timer=FakeTimer())
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


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

    def test_keep_alive_connection_has_nagle_off(self, http_service, monkeypatch):
        # Headers and body are two writes; with Nagle on, the body of every
        # keep-alive answer would wait for the client's delayed ACK.
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
