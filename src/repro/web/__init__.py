"""HTTP substrate: the application layer 3GOL accelerates.

The paper augments two HTTP applications (§4.1): HLS video-on-demand on
the downlink and multipart photo upload on the uplink. This package models
both at the granularity the evaluation needs — request/response objects,
m3u8 playlists and segment sizing, multipart POST overheads, and an origin
server with the §5 testbed's bandwidth caps.
"""

from repro.web.messages import Headers, HttpRequest, HttpResponse
from repro.web.hls import (
    HlsPlaylist,
    MediaSegment,
    VideoAsset,
    VideoQuality,
    BIPBOP_QUALITIES,
    make_bipbop_video,
    parse_m3u8,
    render_m3u8,
)
from repro.web.upload import (
    MultipartPart,
    MultipartUpload,
    Photo,
    decode_multipart,
    encode_multipart,
    encode_photo_upload,
)
from repro.web.origin import OriginServer
from repro.web.client import SequentialHttpClient, TransferLogEntry

__all__ = [
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "HlsPlaylist",
    "MediaSegment",
    "VideoAsset",
    "VideoQuality",
    "BIPBOP_QUALITIES",
    "make_bipbop_video",
    "parse_m3u8",
    "render_m3u8",
    "MultipartPart",
    "MultipartUpload",
    "Photo",
    "decode_multipart",
    "encode_multipart",
    "encode_photo_upload",
    "OriginServer",
    "SequentialHttpClient",
    "TransferLogEntry",
]
