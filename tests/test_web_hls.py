"""HLS playlists and the bipbop asset."""

import pytest

from repro.web.hls import (
    BIPBOP_QUALITIES,
    HlsPlaylist,
    MediaSegment,
    VideoAsset,
    VideoQuality,
    make_bipbop_video,
    parse_m3u8,
    render_m3u8,
)
from repro.util.units import kbps


class TestQualities:
    def test_paper_bitrates(self):
        rates = [q.bitrate_bps for q in BIPBOP_QUALITIES]
        assert rates == [kbps(200), kbps(311), kbps(484), kbps(738)]

    def test_segment_bytes(self):
        q1 = BIPBOP_QUALITIES[0]
        # 10 s at 200 kbps = 250 kB.
        assert q1.segment_bytes(10.0) == pytest.approx(250_000.0)


class TestVideoAsset:
    def test_bipbop_structure(self):
        video = make_bipbop_video()
        playlist = video.playlist("Q4")
        assert len(playlist.segments) == 20
        assert playlist.duration_s == pytest.approx(200.0)

    def test_paper_segment_size_range(self):
        # §5.2: segment sizes from ~0.2 MB (Q1) up to ~0.95 MB (Q4).
        video = make_bipbop_video()
        q1 = video.playlist("Q1").segments[0].size_bytes
        q4 = video.playlist("Q4").segments[0].size_bytes
        assert q1 == pytest.approx(250_000.0)
        assert q4 == pytest.approx(922_500.0)

    def test_tail_segment_for_non_multiple_duration(self):
        video = VideoAsset("v", duration_s=25.0, segment_s=10.0)
        playlist = video.playlist("Q1")
        assert len(playlist.segments) == 3
        assert playlist.segments[-1].duration_s == pytest.approx(5.0)
        assert playlist.duration_s == pytest.approx(25.0)

    def test_unknown_video_quality(self):
        with pytest.raises(KeyError):
            make_bipbop_video().playlist("nope")

    def test_total_bytes_scale_with_bitrate(self):
        video = make_bipbop_video()
        assert (
            video.playlist("Q4").total_bytes
            > video.playlist("Q1").total_bytes
        )


class TestPrebuffer:
    def test_fraction_selects_leading_segments(self):
        playlist = make_bipbop_video().playlist("Q2")
        chosen = playlist.segments_for_prebuffer(0.2)
        assert [s.index for s in chosen] == [0, 1, 2, 3]

    def test_full_video(self):
        playlist = make_bipbop_video().playlist("Q2")
        assert len(playlist.segments_for_prebuffer(1.0)) == 20

    def test_minimum_one_segment(self):
        playlist = make_bipbop_video().playlist("Q2")
        assert len(playlist.segments_for_prebuffer(0.01)) == 1

    def test_invalid_fraction(self):
        playlist = make_bipbop_video().playlist("Q2")
        with pytest.raises(ValueError):
            playlist.segments_for_prebuffer(0.0)
        with pytest.raises(ValueError):
            playlist.segments_for_prebuffer(1.2)


class TestM3u8RoundTrip:
    def test_render_and_parse(self):
        playlist = make_bipbop_video().playlist("Q3")
        text = render_m3u8(playlist)
        parsed = parse_m3u8(text, video_name="bipbop")
        assert len(parsed.segments) == len(playlist.segments)
        for a, b in zip(parsed.segments, playlist.segments):
            assert a.uri == b.uri
            assert a.size_bytes == pytest.approx(b.size_bytes, rel=1e-3)
            assert a.duration_s == pytest.approx(b.duration_s)

    def test_render_has_required_tags(self):
        text = render_m3u8(make_bipbop_video().playlist("Q1"))
        assert text.startswith("#EXTM3U")
        assert "#EXT-X-ENDLIST" in text
        assert "#EXTINF:10.000," in text

    def test_parse_without_sizes_needs_quality(self):
        text = "#EXTM3U\n#EXTINF:10.0,\n/seg0.ts\n#EXT-X-ENDLIST\n"
        with pytest.raises(ValueError, match="quality"):
            parse_m3u8(text)
        parsed = parse_m3u8(text, quality=BIPBOP_QUALITIES[0])
        assert parsed.segments[0].size_bytes == pytest.approx(250_000.0)

    def test_parse_rejects_non_playlist(self):
        with pytest.raises(ValueError, match="EXTM3U"):
            parse_m3u8("hello")

    def test_parse_rejects_orphan_uri(self):
        with pytest.raises(ValueError, match="EXTINF"):
            parse_m3u8("#EXTM3U\n/seg.ts\n")


class TestPlaylistValidation:
    def test_indices_must_be_contiguous(self):
        q = BIPBOP_QUALITIES[0]
        segments = [
            MediaSegment(0, "/a", 10.0, 1.0),
            MediaSegment(2, "/b", 10.0, 1.0),
        ]
        with pytest.raises(ValueError):
            HlsPlaylist("v", q, segments)

    def test_empty_playlist_rejected(self):
        with pytest.raises(ValueError):
            HlsPlaylist("v", BIPBOP_QUALITIES[0], [])
