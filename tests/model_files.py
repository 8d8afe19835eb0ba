"""The parts of a saved model file, for tests that take one apart: the JSON
header line, and the raw ``<f8`` payload of its arrays after the newline."""

import json
import math


def read_model_file(path) -> tuple:
    """``(header document, payload bytearray)`` of the model file at ``path``."""
    header, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(header), bytearray(payload)


def write_model_file(path, document, payload=b"") -> None:
    path.write_bytes(json.dumps(document).encode("ascii") + b"\n" + bytes(payload))


def array_offsets(document) -> dict:
    """Payload byte offset of the first array under each array key of an
    unmodified header: ``combined`` (its first projector) and ``gallery``."""
    gallery = sum(8 * math.prod(blob["shape"]) for blob in document["combined"])
    return {"combined": 0, "gallery": gallery}
