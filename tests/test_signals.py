"""Preprocessing: resampling, scaling, segmentation, cropping, synchronization."""

import numpy as np
import pytest

from bioaffect.errors import IngestError, ValidationError
from bioaffect.signals import (
    SEGMENT_LEN,
    AffectLabel,
    BioSegment,
    Channel,
    FrameRecord,
    SignalTrace,
    SyncedSample,
    crop_face,
    label_targets,
    resample,
    rescale,
    resize_image,
    segment_for_frames,
    synchronize,
)


def make_trace(samples, hz=128.0, channel=Channel.ECG, start=0.0):
    return SignalTrace(channel, hz, np.asarray(samples, dtype=float), start)


class TestResample:
    def test_800_to_128_sample_count(self):
        trace = make_trace(np.zeros(8000), hz=800.0)
        out = resample(trace, 128.0)
        assert out.samples.size == 1280
        assert out.sample_rate_hz == 128.0

    def test_constant_passes_through(self):
        trace = make_trace(np.full(800, 3.25), hz=800.0)
        out = resample(trace, 128.0)
        np.testing.assert_array_equal(out.samples, 3.25)

    def test_sine_against_analytic_waveform(self):
        hz = 800.0
        t = np.arange(8000) / hz
        trace = make_trace(np.sin(2 * np.pi * 1.0 * t), hz=hz)
        out = resample(trace, 128.0)
        expected = np.sin(2 * np.pi * 1.0 * out.sample_times())
        assert np.abs(out.samples - expected).max() < 1e-3

    def test_duration_preserved_within_one_period(self):
        trace = make_trace(np.zeros(1001), hz=800.0)
        out = resample(trace, 128.0)
        assert abs(out.duration_s - trace.duration_s) <= 1.0 / 128.0

    def test_bad_target(self):
        with pytest.raises(IngestError):
            resample(make_trace(np.zeros(10)), 0.0)


class TestRescale:
    def test_hand_case(self):
        out = rescale(make_trace([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(out.samples, [0.0, 0.5, 1.0])

    def test_idempotent_when_already_scaled(self):
        trace = make_trace([0.0, 0.25, 1.0])
        out = rescale(trace)
        np.testing.assert_array_equal(out.samples, trace.samples)
        again = rescale(out)
        np.testing.assert_array_equal(again.samples, out.samples)

    def test_constant_trace_warns_and_centers(self):
        with pytest.warns(UserWarning, match="constant"):
            out = rescale(make_trace(np.full(16, 7.0)))
        np.testing.assert_array_equal(out.samples, 0.5)


class TestSegmentation:
    def test_frame_at_zero_uses_edge_padding(self):
        samples = np.linspace(0.0, 1.0, 2000)
        trace = make_trace(samples)
        seg = segment_for_frames(trace, [0.0])[0]
        half = SEGMENT_LEN // 2
        np.testing.assert_array_equal(seg.window[:half], samples[0])
        np.testing.assert_array_equal(seg.window[half:], samples[:half])

    def test_mid_trace_is_pure_slice(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 1, size=4000)
        trace = make_trace(samples)
        t = 2000 / 128.0
        seg = segment_for_frames(trace, [t])[0]
        np.testing.assert_array_equal(seg.window, samples[1500:2500])

    def test_every_window_has_exact_length(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0, 1, size=500)
        trace = make_trace(samples)
        times = rng.uniform(-1.0, trace.duration_s + 1.0, size=1000)
        for seg in segment_for_frames(trace, times):
            assert seg.window.shape == (SEGMENT_LEN,)

    def test_alignments(self):
        samples = np.arange(4000) / 4000.0
        trace = make_trace(samples)
        t = 2000 / 128.0
        lead = segment_for_frames(trace, [t], alignment="leading")[0]
        trail = segment_for_frames(trace, [t], alignment="trailing")[0]
        np.testing.assert_array_equal(lead.window, samples[2000:3000])
        np.testing.assert_array_equal(trail.window, samples[1001:2001])

    def test_unknown_alignment(self):
        with pytest.raises(IngestError):
            segment_for_frames(make_trace(np.zeros(10)), [0.0], alignment="sideways")


class TestCropFace:
    def test_full_span_equals_resize(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(40, 40))
        full_span = [(0.0, 0.0), (39.0, 39.0)]
        crop = crop_face(img, full_span, side=16)
        np.testing.assert_allclose(crop, resize_image(img, 16), atol=1e-12)

    def test_margin_keeps_landmarks_inside(self):
        img = np.zeros((60, 60))
        img[25:35, 25:35] = 1.0
        crop = crop_face(img, [(25.0, 25.0), (34.0, 34.0)], side=32)
        # The lit landmark box must dominate the crop but not fill it:
        # the 20% margin pulls in surrounding background.
        assert crop.mean() > 0.4
        assert crop.min() == 0.0

    def test_output_always_square(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, size=(50, 70))
        for _ in range(50):
            pts = rng.uniform(0, 49, size=(int(rng.integers(2, 8)), 2))
            if np.ptp(pts[:, 0]) < 1e-9 or np.ptp(pts[:, 1]) < 1e-9:
                continue
            assert crop_face(img, pts, side=24).shape == (24, 24)

    def test_degenerate_box_rejected(self):
        img = np.zeros((10, 10))
        with pytest.raises(IngestError, match="degenerate"):
            crop_face(img, [(4.0, 4.0), (4.0, 4.0)])

    def test_needs_two_landmarks(self):
        with pytest.raises(IngestError):
            crop_face(np.zeros((10, 10)), [(1.0, 1.0)])


def _session_pieces(n_frames=10, seconds=30.0, hz=128.0):
    rng = np.random.default_rng(7)
    traces = {
        Channel.ECG: make_trace(rng.uniform(0, 1, int(seconds * hz)), hz, Channel.ECG),
        Channel.EDA: make_trace(rng.uniform(0, 1, int(seconds * hz)), hz, Channel.EDA),
    }
    frames = [
        FrameRecord(timestamp_s=1.0 + i * 2.0, image=rng.uniform(0, 1, (64, 64)))
        for i in range(n_frames)
    ]
    label = AffectLabel(6.0, 4.0, 5.0)
    return traces, frames, label


class TestSynchronize:
    def test_one_sample_per_frame_two_segments_each(self):
        traces, frames, label = _session_pieces(n_frames=10)
        samples = synchronize(traces, frames, label, "p00", "p00_t00")
        assert len(samples) == 10
        for s in samples:
            assert set(s.segments) == {Channel.ECG, Channel.EDA}

    def test_frame_indices_strictly_increasing(self):
        traces, frames, label = _session_pieces(n_frames=6)
        samples = synchronize(traces, frames, label, "p", "s")
        indices = [s.frame_index for s in samples]
        assert indices == sorted(set(indices)) == list(range(6))

    def test_center_sample_time_near_frame_time(self):
        rng = np.random.default_rng(9)
        traces, _, label = _session_pieces(seconds=60.0)
        times = np.sort(rng.uniform(5.0, 55.0, size=20))
        frames = [FrameRecord(timestamp_s=t, image=np.zeros((64, 64))) for t in times]
        samples = synchronize(traces, frames, label, "p", "s")
        for s, t in zip(samples, times):
            center = int(round(t * 128.0))
            seg = s.segments[Channel.ECG]
            start = center - SEGMENT_LEN // 2
            expected = traces[Channel.ECG].samples[start : start + SEGMENT_LEN]
            np.testing.assert_array_equal(seg.window, expected)
            assert abs(center / 128.0 - t) <= 1.0 / 128.0

    def test_missing_channel_names_it(self):
        traces, frames, label = _session_pieces()
        del traces[Channel.EDA]
        with pytest.raises(IngestError, match="EDA"):
            synchronize(traces, frames, label, "p", "s")

    def test_empty_frames(self):
        traces, _, label = _session_pieces()
        with pytest.raises(IngestError):
            synchronize(traces, [], label, "p", "s")

    def test_faces_cropped_to_configured_side(self):
        traces, _, label = _session_pieces()
        frames = [
            FrameRecord(
                timestamp_s=2.0,
                image=np.random.default_rng(0).uniform(0, 1, (80, 80)),
                landmarks=[(8.0, 8.0), (71.0, 71.0)],
            )
        ]
        samples = synchronize(traces, frames, label, "p", "s", face_size=32)
        assert samples[0].face.image.shape == (32, 32)


class TestDomainTypes:
    def test_label_range_enforced(self):
        with pytest.raises(ValidationError):
            AffectLabel(10.0, 5.0, 5.0)
        with pytest.raises(ValidationError):
            AffectLabel(5.0, 0.5, 5.0)

    def test_label_targets_scale(self):
        label = AffectLabel(9.0, 1.0, 5.0, emotions=np.eye(7)[2])
        targets = label_targets(label)
        np.testing.assert_allclose(targets[:3], [1.0, 0.0, 0.5])
        np.testing.assert_array_equal(targets[3:], np.eye(7)[2])

    def test_segment_length_enforced(self):
        with pytest.raises(Exception):
            BioSegment(Channel.ECG, np.zeros(999), 0)

    def test_segment_range_enforced(self):
        with pytest.raises(ValidationError):
            BioSegment(Channel.ECG, np.full(SEGMENT_LEN, 1.5), 0)
        # NaN fails every comparison, so it must fail the range check too.
        window = np.full(SEGMENT_LEN, 0.5)
        window[7] = np.nan
        with pytest.raises(ValidationError):
            BioSegment(Channel.ECG, window, 0)

    def test_sample_requires_both_channels(self):
        seg = BioSegment(Channel.ECG, np.zeros(SEGMENT_LEN), 0)
        face = FrameRecord(timestamp_s=0.0, image=np.zeros((8, 8)))
        with pytest.raises(IngestError):
            SyncedSample({Channel.ECG: seg}, face, AffectLabel(5, 5, 5), "p", "s")

    def test_frame_payload_exclusive(self):
        # A frame's one payload is a 2-D image: no image, or a vector, is refused.
        with pytest.raises(TypeError):
            FrameRecord(timestamp_s=0.0)
        for payload in (None, np.zeros(3)):
            with pytest.raises(IngestError, match="2D"):
                FrameRecord(timestamp_s=0.0, image=payload)
