"""Wire-format tests: specs must cross the network digest-intact, and
the HTTP/1.1 exchange holds its bounds at both ends."""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.errors import ClusterError
from repro.exec.spec import RunSpec, experiment_spec, spec_digest
from repro.cluster.master import ClusterMaster
from repro.cluster.protocol import (
    MAX_HEADERS,
    MAX_LINE,
    PROTOCOL_VERSION,
    MasterClient,
    check_handshake,
    config_from_wire,
    content_length,
    frame,
    handshake_document,
    read_body,
    read_head,
    spec_from_wire,
    spec_to_wire,
)
from repro.simulation.config import ScaledConfig


class TestSpecWire:
    def test_experiment_spec_round_trip_preserves_digest(self):
        spec = experiment_spec(
            ScaledConfig(scale=50).with_(
                technique="vdr", num_stations=3, access_mean=0.2
            ),
            label="wire-test",
        )
        wire = json.loads(json.dumps(spec_to_wire(spec)))  # full JSON trip
        rebuilt = spec_from_wire(wire)
        assert rebuilt.label == "wire-test"
        assert rebuilt.config == spec.config
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_tuple_fields_survive(self):
        config = ScaledConfig(scale=50).with_(
            arrival="mmpp",
            mmpp_rates=(0.1, 0.9),
            mmpp_sojourn=(100.0, 50.0),
            fail_at=((3, 100), (7, 250)),
            mttr=10.0,
        )
        spec = experiment_spec(config)
        rebuilt = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
        assert rebuilt.config.mmpp_rates == (0.1, 0.9)
        assert rebuilt.config.fail_at == ((3, 100), (7, 250))
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_configless_spec(self):
        spec = RunSpec(kind="mixed_media", params={"value": 3}, label="mm")
        rebuilt = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
        assert rebuilt.config is None
        assert rebuilt.params == {"value": 3}
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_unknown_config_field_rejected(self):
        wire = spec_to_wire(experiment_spec(ScaledConfig(scale=50)))
        wire["config"]["made_up_knob"] = 1
        with pytest.raises(ClusterError, match="unknown fields"):
            config_from_wire(wire["config"])


class TestHandshake:
    def test_matching_handshake_accepted(self):
        assert check_handshake(handshake_document()) is None

    def test_protocol_mismatch_rejected(self):
        doc = handshake_document()
        doc["protocol"] = PROTOCOL_VERSION + 1
        assert "protocol version mismatch" in check_handshake(doc)

    def test_salt_mismatch_rejected(self):
        doc = handshake_document()
        doc["salt"] = "deadbeef"
        assert "salt" in check_handshake(doc)


# ----------------------------------------------------------------------
# The HTTP/1.1 exchange
# ----------------------------------------------------------------------
@pytest.fixture
def master(tmp_path):
    master = ClusterMaster(port=0, cache_dir=str(tmp_path / "cache"))
    master.start()
    yield master
    master.stop()


def raw_exchange(master, data: bytes) -> bytes:
    """Send ``data``, half-close, and return whatever the master
    answers before it closes (``b""`` when it drops the connection)."""
    with socket.create_connection(
        master.server.server_address[:2], timeout=10
    ) as sock:
        chunks = []
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionError:
            pass  # a reset: the master closed with our bytes unread
    return b"".join(chunks)


REGISTER = json.dumps(
    dict(handshake_document(), agent="intruder", cores=1, host="test")
).encode()


def post(length_header: str, body: bytes = REGISTER) -> bytes:
    return (
        b"POST /api/v1/register HTTP/1.1\r\nHost: x\r\n"
        + length_header.encode()
        + b"\r\n" + body
    )


MALFORMED = {
    "request-line": b"NONSENSE\r\n\r\n",
    "request-version": b"GET /api/v1/status SPDY/3\r\n\r\n",
    "long-header": (
        b"GET /api/v1/status HTTP/1.1\r\nX-Long: "
        + b"a" * MAX_LINE + b"\r\n\r\n"
    ),
    "long-request-line": b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n",
    "many-headers": (
        b"GET /api/v1/status HTTP/1.1\r\n"
        + b"X-H: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n"
    ),
    "header-without-colon": b"GET /api/v1/status HTTP/1.1\r\nX-H 1\r\n\r\n",
    "no-content-length": post(""),
    "negative-content-length": post("Content-Length: -1\r\n"),
    "text-content-length": post("Content-Length: twelve\r\n"),
    "float-content-length": post("Content-Length: 1.5\r\n"),
    "body-cut-short": post(
        f"Content-Length: {len(REGISTER)}\r\n", REGISTER[:10]
    ),
    "huge-content-length": post("Content-Length: 999999999999999\r\n"),
    "head-cut-short": b"POST /api/v1/register HTTP/1.1\r\nHost:",
    "bad-json": post("Content-Length: 5\r\n", b"{nope"),
}


class TestMasterWire:
    @pytest.mark.parametrize("request_bytes", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_request_is_refused_and_never_dispatched(
        self, master, request_bytes, capsys
    ):
        reply = raw_exchange(master, request_bytes)
        assert reply == b"" or reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        status = MasterClient(master.url).call("status")
        assert status["agents"] == []
        assert capsys.readouterr().err == ""  # no handler traceback

    def test_unknown_path_is_404(self, master):
        reply = raw_exchange(master, b"GET /nope HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: close\r\n" in reply
        assert MasterClient(master.url).call("status")["agents"] == []

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /api/v1/nope HTTP/1.1\r\n\r\n",
            b"PUT /api/v1/status HTTP/1.1\r\n\r\n",
            b"GET /api/v1/sweeps/x/records/more HTTP/1.1\r\n\r\n",
            b"POST /api/v1/nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        ],
        ids=["get", "put", "deep-get", "post"],
    )
    def test_unknown_endpoint_under_the_api_is_404(self, master, request_bytes):
        reply = raw_exchange(master, request_bytes)
        assert reply.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"unknown endpoint" in reply

    def test_unknown_sweep_and_rejected_handshake_stay_409(self, master):
        reply = raw_exchange(master, b"GET /api/v1/sweeps/nope HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 409 Conflict\r\n")
        stale = json.dumps(
            dict(handshake_document(), protocol=PROTOCOL_VERSION + 1, agent="x")
        ).encode()
        reply = raw_exchange(master, post(f"Content-Length: {len(stale)}\r\n", stale))
        assert reply.startswith(b"HTTP/1.1 409 Conflict\r\n")
        assert b"protocol version mismatch" in reply

    def test_well_formed_post_is_dispatched(self, master):
        reply = raw_exchange(
            master, post(f"Content-Length: {len(REGISTER)}\r\n")
        )
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body)["ok"]
        agents = MasterClient(master.url).call("status")["agents"]
        assert [agent["agent"] for agent in agents] == ["intruder"]


@contextlib.contextmanager
def canned_master(*replies: bytes):
    """A one-thread server that reads a request per connection and
    answers with the next of ``replies``; yields its URL and the
    requests it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)
    requests = []

    def serve():
        for reply in replies:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                start, headers = read_head(rfile)
                length = content_length(headers) if start[:4] == "POST" else 0
                requests.append((start, read_body(rfile, length)))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        thread.join(10)
        listener.close()
    assert not thread.is_alive()


def reply(code: str, body: bytes) -> bytes:
    return frame(f"HTTP/1.1 {code}", body)


GOOD = reply("200 OK", b'{"agents": []}')

RETRIED = {
    "server-error": reply("500 Internal Server Error", b'{"error": "boom"}'),
    "unavailable": reply("503 Service Unavailable", b""),
    "closed-without-reply": b"",
    "short-body": reply("200 OK", b'{"agents": []}')[:-3],
    "bad-json": reply("200 OK", b"{nope"),
    "bad-status-line": b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
}


class TestClientWire:
    @pytest.mark.parametrize(
        "url",
        ["https://127.0.0.1:1", "127.0.0.1:1", "http://", "http://h:port",
         "ftp://h/"],
    )
    def test_a_url_that_is_not_http_is_refused_at_construction(self, url):
        with pytest.raises(ClusterError, match="is not http://host"):
            MasterClient(url)

    def test_cli_refuses_an_https_master_url_with_exit_2(self, capsys):
        code = main(["agent", "--master-url", "https://127.0.0.1:1"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "is not http://host" in err

    def test_request_is_framed_for_the_url(self):
        with canned_master(GOOD) as (url, requests):
            assert MasterClient(url + "/root/").call("status") == {"agents": []}
        assert requests[0] == ("GET /root/api/v1/status HTTP/1.1", b"")

    @pytest.mark.parametrize("first", RETRIED.values(), ids=RETRIED)
    def test_transport_failures_are_retried(self, first):
        with canned_master(first, GOOD) as (url, requests):
            client = MasterClient(url, backoff_base=0.01)
            assert client.call("heartbeat", {"agent": "a"}) == {"agents": []}
        assert [start for start, _ in requests] == [
            "POST /api/v1/heartbeat HTTP/1.1"
        ] * 2
        assert [json.loads(body) for _, body in requests] == [{"agent": "a"}] * 2

    def test_refused_connection_is_retried(self, master):
        client = MasterClient(master.url, backoff_base=0.01)
        live = client.address
        with socket.create_server(("127.0.0.1", 0)) as closed:
            dead = closed.getsockname()
        client.address = dead
        exchange = client._exchange
        calls = []

        def heal(request):
            calls.append(client.address)
            try:
                return exchange(request)
            finally:
                client.address = live

        client._exchange = heal
        assert client.call("status")["agents"] == []
        assert calls == [dead, live]

    def test_conflict_is_raised_at_once(self):
        conflict = reply("409 Conflict", b'{"error": "unknown sweep \'x\'"}')
        with canned_master(conflict) as (url, requests):
            with pytest.raises(ClusterError, match=r"unknown sweep.*HTTP 409"):
                MasterClient(url, backoff_base=0.01).sweep_state("x")
        assert len(requests) == 1

    def test_unreachable_master_gives_up_after_the_retry_budget(self):
        with socket.create_server(("127.0.0.1", 0)) as closed:
            port = closed.getsockname()[1]
        client = MasterClient(
            f"http://127.0.0.1:{port}", retries=2, backoff_base=0.01
        )
        with pytest.raises(ClusterError, match="unreachable after 2 attempts"):
            client.call("status")
