"""Multipart upload modelling."""

import pytest

from repro.web.upload import (
    MULTIPART_PART_OVERHEAD_BYTES,
    MultipartUpload,
    Photo,
)


class TestPhoto:
    def test_validation(self):
        with pytest.raises(ValueError):
            Photo(name="", size_bytes=1.0)
        with pytest.raises(ValueError):
            Photo(name="a.jpg", size_bytes=0.0)


class TestMultipartUpload:
    def test_body_includes_framing(self):
        upload = MultipartUpload(Photo("a.jpg", 1000.0))
        assert upload.body_bytes == 1000.0 + MULTIPART_PART_OVERHEAD_BYTES

    def test_to_request(self):
        request = MultipartUpload(Photo("a.jpg", 1000.0)).to_request()
        assert request.method == "POST"
        assert request.is_upload
        assert "multipart/form-data" in request.headers.get("Content-Type")
        assert request.headers.get("Content-Length") == "1200"
