"""Wire protocol: framing round-trips, bounds, responses, serialization."""

from __future__ import annotations

import io
import socket
import struct
import threading

import pytest

from repro.datamodel import DataType, Table, make_schema
from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolError,
    decode_body,
    encode_frame,
    error_response,
    frame_length,
    ok_response,
    read_frame_sync,
    serialize_outputs,
    serialize_value,
)


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"op": "ping", "id": 7})
        length = frame_length(frame[:4])
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == {"op": "ping", "id": 7}

    def test_body_must_be_json_object(self):
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_body(b"not json at all")

    def test_declared_length_is_bounded(self):
        huge = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            frame_length(huge)

    def test_sync_read_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "execute", "id": "a", "params": {"x": 1}}
            left.sendall(encode_frame(message))
            assert read_frame_sync(right) == message
            left.close()
            assert read_frame_sync(right) is None  # clean EOF
        finally:
            right.close()

    def test_mid_frame_eof_is_an_error(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"op": "ping", "id": 1})
            left.sendall(frame[: len(frame) - 2])
            left.close()
            with pytest.raises(ProtocolError):
                read_frame_sync(right)
        finally:
            right.close()


class TestResponses:
    def test_ok_response_echoes_id(self):
        response = ok_response("r1", pong=True)
        assert response == {"id": "r1", "ok": True, "pong": True}

    def test_overload_and_quota_are_retryable(self):
        for code in (protocol.OVERLOADED, protocol.QUOTA_EXCEEDED,
                     protocol.SHUTTING_DOWN):
            response = error_response("r", code, "nope", retry_after_s=0.25)
            assert response["error"]["retryable"] is True
            assert response["error"]["retry_after_s"] == 0.25

    def test_terminal_errors_are_not_retryable(self):
        for code in (protocol.BAD_REQUEST, protocol.UNKNOWN_PROGRAM,
                     protocol.CANCELLED, protocol.DEADLINE_EXCEEDED,
                     protocol.INTERNAL):
            assert error_response("r", code, "x")["error"]["retryable"] is False


class TestSerialization:
    def test_table_serializes_row_major(self):
        schema = make_schema(("pid", DataType.INT), ("name", DataType.STRING))
        table = Table(schema, [(1, "ada"), (2, "alan")])
        value = serialize_value(table)
        assert value["kind"] == "table"
        assert value["columns"] == ["pid", "name"]
        assert value["rows"] == [[1, "ada"], [2, "alan"]]

    def test_table_with_nulls_frames_as_before(self):
        """Positional rows frame to the same bytes as reading each row back
        by column name from a dict did."""
        schema = make_schema(("pid", DataType.INT), ("score", DataType.FLOAT),
                             ("name", DataType.STRING))
        table = Table(schema, [(1, None, "ada"), (None, 2.5, None),
                               (3, 0.0, "")])
        by_name = {
            "kind": "table",
            "columns": list(schema.names),
            "rows": [[row.get(name) for name in schema.names]
                     for row in table.to_dicts()],
        }
        frame = encode_frame(ok_response(4, outputs={"t": serialize_value(table)}))
        assert frame == encode_frame(ok_response(4, outputs={"t": by_name}))
        assert frame[4:] == (
            b'{"id":4,"ok":true,"outputs":{"t":{"kind":"table",'
            b'"columns":["pid","score","name"],'
            b'"rows":[[1,null,"ada"],[null,2.5,null],[3,0.0,""]]}}}')

    def test_non_table_values_pass_through(self):
        outputs = serialize_outputs({"n": 3, "s": "x", "d": {"k": 1}})
        assert outputs == {"n": 3, "s": "x", "d": {"k": 1}}

    def test_encoded_frame_survives_table_payload(self):
        schema = make_schema(("a", DataType.INT),)
        payload = ok_response(1, outputs=serialize_outputs(
            {"t": Table(schema, [(i,) for i in range(10)])}))
        decoded = decode_body(encode_frame(payload)[4:])
        assert decoded["outputs"]["t"]["rows"][9] == [9]


def test_concurrent_sync_reads_preserve_frame_boundaries():
    """Many frames written back-to-back decode one by one, no tearing."""
    left, right = socket.socketpair()
    frames = [{"id": i, "op": "ping"} for i in range(50)]
    received = []

    def reader():
        while True:
            message = read_frame_sync(right)
            if message is None:
                break
            received.append(message)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        buffer = io.BytesIO()
        for frame in frames:
            buffer.write(encode_frame(frame))
        left.sendall(buffer.getvalue())
        left.close()
        thread.join(timeout=10)
        assert received == frames
    finally:
        right.close()
