"""Multipart photo-upload modelling.

The paper's uplink application mirrors Facebook/Flickr/Picasa native
clients (§4.1): each photo is sent in its own multipart HTTP POST, and the
stock clients upload sequentially, one file at a time — exactly the
behaviour 3GOL parallelises across paths. §5.2 uploads a set of 30 photos
with mean size 2.5 MB and standard deviation 0.74 MB (fitted from 200
iPhone 4S/5 photos).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.proto.errors import MultipartError
from repro.web.messages import Headers, HttpRequest
from repro.util.validate import check_positive

#: Per-part framing overhead of a multipart/form-data body: boundary lines,
#: Content-Disposition and Content-Type headers. A real browser emits
#: roughly 150-250 bytes per part; we use a fixed representative value.
MULTIPART_PART_OVERHEAD_BYTES = 200.0


@dataclass(frozen=True)
class Photo:
    """One photo to upload."""

    name: str
    size_bytes: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("photo name must be non-empty")
        check_positive("size_bytes", self.size_bytes)


@dataclass(frozen=True)
class MultipartUpload:
    """A photo wrapped in a multipart/form-data POST."""

    photo: Photo
    boundary: str = "----3golBoundary"

    @property
    def body_bytes(self) -> float:
        """Total POST body size: payload plus multipart framing."""
        return self.photo.size_bytes + MULTIPART_PART_OVERHEAD_BYTES

    def to_request(self, upload_url: str = "/upload") -> HttpRequest:
        """Materialise the POST request."""
        headers = Headers(
            {
                "Content-Type": f"multipart/form-data; boundary={self.boundary}",
                "Content-Length": str(int(self.body_bytes)),
            }
        )
        return HttpRequest(
            method="POST",
            url=f"{upload_url}?name={self.photo.name}",
            headers=headers,
            body_bytes=self.body_bytes,
        )


# ---------------------------------------------------------------------------
# multipart/form-data wire format (subset)
# ---------------------------------------------------------------------------

DEFAULT_BOUNDARY = "----3golBoundary"

#: RFC 2046 §5.1.1 bchars, minus space (we never quote boundaries).
_BOUNDARY_CHARS = frozenset(
    string.ascii_letters + string.digits + "'()+_,-./:=?"
)
#: Characters allowed in ``name=`` / ``filename=`` tokens.
_TOKEN_CHARS = frozenset(
    string.ascii_letters + string.digits + "!#$%&'*+-._~"
)
#: Bound on parts in one body (a photo upload carries exactly one; the
#: decoder is shared, so keep a generous-but-finite ceiling).
MAX_MULTIPART_PARTS = 1_024
#: Bound on one part's header section.
MAX_PART_HEAD_BYTES = 8 * 1024


def _check_boundary(boundary: str) -> None:
    if not 1 <= len(boundary) <= 70:
        raise MultipartError(
            f"boundary must be 1-70 characters, got {len(boundary)}"
        )
    if not set(boundary) <= _BOUNDARY_CHARS:
        raise MultipartError(f"boundary {boundary!r} has invalid characters")


def _check_token(label: str, token: str) -> None:
    if not token or not set(token) <= _TOKEN_CHARS:
        raise MultipartError(f"invalid {label} {token!r}")


@dataclass(frozen=True)
class MultipartPart:
    """One decoded (or to-be-encoded) part of a multipart/form-data body."""

    name: str
    filename: str
    content_type: str
    payload: bytes


def encode_multipart(
    parts: Sequence[MultipartPart], boundary: str = DEFAULT_BOUNDARY
) -> bytes:
    """Serialise ``parts`` as a multipart/form-data body.

    The framing matches what stock photo-upload clients emit: one
    ``--boundary`` dash-line per part, Content-Disposition and
    Content-Type part headers, a closing ``--boundary--`` line. Raises
    :class:`~repro.proto.errors.MultipartError` when a payload contains
    the delimiter (multipart cannot escape it) or a token is invalid, so
    every successfully encoded body decodes back to the same parts.
    """
    _check_boundary(boundary)
    if not parts:
        raise MultipartError("need at least one part")
    if len(parts) > MAX_MULTIPART_PARTS:
        raise MultipartError(f"more than {MAX_MULTIPART_PARTS} parts")
    delimiter = b"\r\n--" + boundary.encode("ascii")
    out = bytearray()
    for part in parts:
        _check_token("part name", part.name)
        _check_token("filename", part.filename)
        if not part.content_type or not part.content_type.isascii():
            raise MultipartError(
                f"invalid content type {part.content_type!r}"
            )
        if delimiter in b"\r\n" + part.payload:
            raise MultipartError(
                f"payload of part {part.name!r} contains the boundary "
                "delimiter"
            )
        out += b"--" + boundary.encode("ascii") + b"\r\n"
        out += (
            f'Content-Disposition: form-data; name="{part.name}"; '
            f'filename="{part.filename}"\r\n'
            f"Content-Type: {part.content_type}\r\n\r\n"
        ).encode("ascii")
        out += part.payload + b"\r\n"
    out += b"--" + boundary.encode("ascii") + b"--\r\n"
    return bytes(out)


def _parse_part_head(head: bytes) -> Tuple[str, str, str]:
    """Extract (name, filename, content_type) from one part's headers."""
    if len(head) > MAX_PART_HEAD_BYTES:
        raise MultipartError(
            f"part header section exceeds {MAX_PART_HEAD_BYTES} bytes"
        )
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MultipartError(f"part headers are not ASCII: {exc}") from None
    disposition = ""
    content_type = "application/octet-stream"
    for line in text.split("\r\n"):
        if not line:
            continue
        if ":" not in line:
            raise MultipartError(f"malformed part header line {line!r}")
        header_name, _, value = line.partition(":")
        key = header_name.strip().lower()
        if key == "content-disposition":
            disposition = value.strip()
        elif key == "content-type":
            content_type = value.strip()
    if not disposition.startswith("form-data"):
        raise MultipartError(
            f"part disposition {disposition!r} is not form-data"
        )
    params = {}
    for attribute in disposition.split(";")[1:]:
        attribute = attribute.strip()
        if "=" not in attribute:
            raise MultipartError(
                f"malformed disposition attribute {attribute!r}"
            )
        attr_name, _, attr_value = attribute.partition("=")
        if (
            len(attr_value) < 2
            or not attr_value.startswith('"')
            or not attr_value.endswith('"')
        ):
            raise MultipartError(
                f"disposition attribute {attr_name!r} is not quoted"
            )
        params[attr_name.strip().lower()] = attr_value[1:-1]
    name = params.get("name", "")
    filename = params.get("filename", "")
    _check_token("part name", name)
    _check_token("filename", filename)
    return name, filename, content_type


def decode_multipart(
    body: bytes, boundary: str = DEFAULT_BOUNDARY
) -> Tuple[MultipartPart, ...]:
    """Parse a multipart/form-data body back into its parts.

    Strict inverse of :func:`encode_multipart`: no preamble, CRLF
    framing, a terminating ``--boundary--`` line. Any structural
    deviation raises :class:`~repro.proto.errors.MultipartError`, never
    a bare builtin exception — this is the parse path the fuzzer
    hammers.
    """
    _check_boundary(boundary)
    dashed = b"--" + boundary.encode("ascii")
    opener = dashed + b"\r\n"
    if not body.startswith(opener):
        raise MultipartError("body does not open with the boundary line")
    chunks = (b"\r\n" + body[len(opener):]).split(b"\r\n" + dashed)
    # chunks[:-1] are "\r\n<head>\r\n\r\n<payload>" part bodies;
    # chunks[-1] is the terminator's tail and must be "--" (+ CRLF).
    tail = chunks[-1]
    if tail not in (b"--", b"--\r\n"):
        raise MultipartError("body does not end with the closing boundary")
    parts: List[MultipartPart] = []
    for chunk in chunks[:-1]:
        if not chunk.startswith(b"\r\n"):
            raise MultipartError("boundary line not followed by CRLF")
        if len(parts) >= MAX_MULTIPART_PARTS:
            raise MultipartError(
                f"more than {MAX_MULTIPART_PARTS} parts"
            )
        segment = chunk[2:]
        head, separator, payload = segment.partition(b"\r\n\r\n")
        if not separator:
            raise MultipartError(
                "part has no blank line between headers and payload"
            )
        name, filename, content_type = _parse_part_head(head)
        parts.append(
            MultipartPart(
                name=name,
                filename=filename,
                content_type=content_type,
                payload=payload,
            )
        )
    if not parts:
        raise MultipartError("body contains no parts")
    return tuple(parts)


def encode_photo_upload(
    photo: Photo, payload: bytes, boundary: str = DEFAULT_BOUNDARY
) -> bytes:
    """Wire body for one photo POST (the loopback prototype's framing)."""
    if len(payload) != int(photo.size_bytes):
        raise MultipartError(
            f"payload is {len(payload)} bytes but photo {photo.name!r} "
            f"declares {int(photo.size_bytes)}"
        )
    return encode_multipart(
        [
            MultipartPart(
                name="photo",
                filename=photo.name,
                content_type="image/jpeg",
                payload=payload,
            )
        ],
        boundary=boundary,
    )
