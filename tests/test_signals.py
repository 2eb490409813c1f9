"""Preprocessing: resampling, scaling, segmentation, cropping, synchronization."""

import numpy as np
import pytest

from bioaffect import bmmn, signals
from bioaffect.errors import IngestError, ShapeError, ValidationError
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
    prepare_face,
    resample,
    rescale,
    resize_image,
    segment_for_frames,
    synchronize,
)

from oracles import bilinear_sample_four_gather


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

    @pytest.mark.parametrize("n, hz, start", [
        (8001, 800.0, 0.0), (1000, 128.0, 12.3), (7, 800.0, -4.1), (96000, 800.0, 1e-9),
    ])
    def test_time_grids_give_the_bits_of_the_arange_formula(self, n, hz, start):
        samples = np.random.default_rng(n).uniform(0, 1, n)
        trace = make_trace(samples, hz=hz, start=start)
        want = start + np.arange(n) / hz
        assert np.array_equal(trace.sample_times().view(np.uint64), want.view(np.uint64))
        out = resample(trace, 128.0)
        t_out = start + np.arange(out.samples.size) / 128.0
        want = np.interp(t_out, start + np.arange(n) / hz, samples)
        assert np.array_equal(out.samples.view(np.uint64), want.view(np.uint64))


    @pytest.mark.parametrize("block", [1, 7, signals._RESAMPLE_BLOCK])
    @pytest.mark.parametrize("n, hz, target, start", [
        (96_000, 800.0, 128.0, 1e-9),  # two default blocks
        (20_003, 800.0, 400.0, 0.0),  # each output time is a source time; the last is the last
        (4_003, 800.0, 100.0, -7.25),
        (513, 100.0, 800.0, 3.0),  # upsampled: the last outputs lie past the last source time
        (5, 800.0, 128.0, 0.0),
        # Output 1008 (7.875 s) lies just below source time 2625, although
        # (7.875 - 0) * rate rounds to 2625.0000000000005.
        (4_100, 1000.0 / 3.0, 128.0, 0.0),
    ])
    def test_blocks_give_the_bits_of_one_interp_call(self, monkeypatch, block, n, hz, target,
                                                     start):
        monkeypatch.setattr(signals, "_RESAMPLE_BLOCK", block)
        samples = np.random.default_rng(n).uniform(-1, 1, n)
        out = resample(make_trace(samples, hz=hz, start=start), target)
        t_src = start + np.arange(n) / hz
        t_out = start + np.arange(out.samples.size) / target
        want = np.interp(t_out, t_src, samples)
        assert np.array_equal(out.samples.view(np.uint64), want.view(np.uint64))
        if target in (100.0, 400.0):
            assert np.isin(t_out, t_src).all()
        if n == 20_003:
            assert t_out[-1] == t_src[-1]

    def test_no_full_source_time_grid(self):
        import tracemalloc

        trace = make_trace(np.random.default_rng(0).uniform(0, 1, 480_000), hz=800.0)
        tracemalloc.start()
        try:
            out = resample(trace, 128.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.samples.nbytes + trace.samples.nbytes / 4, peak


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_landmarks_rejected(self, bad):
        with pytest.raises(IngestError, match="landmarks must be finite"):
            crop_face(np.zeros((10, 10)), [(1.0, 1.0), (bad, 5.0), (8.0, 8.0)])


class TestEightBitFrames:
    """A uint8 frame stays 8-bit until `prepare_face`, which gives the bits
    that the same pixels as float64 / 255.0 give."""

    @pytest.mark.parametrize("shape, landmarks", [
        ((48, 64), [(10.0, 8.0), (41.0, 37.0), (25.0, 30.0)]),  # crop
        ((48, 64), None),  # resize
        ((16, 16), None),  # already the face size: passed through
    ])
    def test_prepare_face_gives_the_bits_of_the_float_frame(self, shape, landmarks):
        pixels = np.random.default_rng(shape[0]).integers(0, 256, shape, dtype=np.uint8)
        frame = FrameRecord(timestamp_s=1.0, image=pixels, landmarks=landmarks)
        assert frame.image is pixels
        as_float = FrameRecord(1.0, pixels.astype(np.float64) / 255.0, landmarks)
        face = prepare_face(frame, side=16)
        want = prepare_face(as_float, side=16)
        assert face.dtype == np.float64 and face.shape == (16, 16)
        assert np.array_equal(face.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape", [(80, 80), (480, 640)], ids=["80x80", "640x480"])
    @pytest.mark.parametrize("box", ["inside", "top-left-edge", "bottom-right-edge", "whole",
                                     "small"])
    def test_a_crop_gives_the_bits_of_the_whole_float_frame(self, monkeypatch, shape, box):
        # The crop scales only the landmark box plus its bilinear margin;
        # the reference scales the whole frame and samples it by four
        # gathers. The edge boxes' 20 % margin is clamped at the frame edge;
        # the small box is scaled up.
        h, w = shape
        landmarks = {
            "inside": [(0.3 * w, 0.25 * h), (0.6 * w, 0.7 * h), (0.45 * w, 0.5 * h)],
            "top-left-edge": [(0.0, 1.5), (0.4 * w, 0.3 * h)],
            "bottom-right-edge": [(0.7 * w, 0.8 * h), (w - 1.0, h - 2.5)],
            "whole": [(0.0, 0.0), (w - 1.0, h - 1.0)],
            "small": [(0.5 * w, 0.5 * h), (0.5 * w + 9.0, 0.5 * h + 7.0)],
        }[box]
        pixels = np.random.default_rng(h).integers(0, 256, shape, dtype=np.uint8)
        face = prepare_face(FrameRecord(1.0, pixels, landmarks), side=64)
        monkeypatch.setattr(signals, "_bilinear_sample", bilinear_sample_four_gather)
        want = crop_face(pixels.astype(np.float64) / 255.0, landmarks, side=64)
        assert face.shape == want.shape == (64, 64)
        assert np.array_equal(face.view(np.uint64), want.view(np.uint64))

    def test_a_crop_of_a_large_frame_makes_no_float_copy_of_it(self):
        import tracemalloc

        pixels = np.random.default_rng(1).integers(0, 256, (480, 640), dtype=np.uint8)
        frame = FrameRecord(1.0, pixels, [(250.0, 150.0), (390.0, 330.0)])
        tracemalloc.start()
        try:
            prepare_face(frame, side=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * pixels.size / 2, peak

    # sha256 of the face that a resize (no landmarks) of each frame gave
    # when the whole frame was scaled onto [0, 1] first.
    @pytest.mark.parametrize("shape, side, digest", [
        ((480, 640), 64, "5475be6e5f75c78ea9cf83414c1821022e0a6b335c74e60646de5b4a6a0b6412"),
        ((80, 80), 64, "0b75c480ba968adf7e5cc926b3d34fa4beca19f46ed3c02a2e831a45a087b719"),
        ((37, 91), 16, "18ec6446d5ac0972adf0438dbd5b6aa6a97a0b91e623bd5959a66499f1d2c225"),
        # scaled up: the grid runs past, and is clamped at, every edge
        ((20, 30), 64, "9db032d61f9128751da64601030e039f02e0659e606f1beea8423e39daba70a8"),
        ((1, 7), 4, "4546f98eec609e1ce99bf4182d67699bd6c18ee35a98199e6371f34b4f6c5e44"),
    ], ids=["640x480", "80x80", "91x37", "30x20-up", "7x1-up"])
    def test_a_resize_gives_the_pinned_bits(self, monkeypatch, shape, side, digest):
        import hashlib

        pixels = np.random.default_rng(shape[0] * 1000 + shape[1]).integers(
            0, 256, shape, dtype=np.uint8)
        face = prepare_face(FrameRecord(1.0, pixels), side=side)
        assert hashlib.sha256(face.tobytes()).hexdigest() == digest
        monkeypatch.setattr(signals, "_bilinear_sample", bilinear_sample_four_gather)
        want = resize_image(pixels.astype(np.float64) / 255.0, side)
        assert np.array_equal(face.view(np.uint64), want.view(np.uint64))

    def test_a_resize_of_a_large_frame_scales_only_the_lines_it_reads(self):
        # A 64-side grid reads at most 128 of the 480 rows and of the 640
        # columns; the whole frame as float64 is 2.46 MB.
        import tracemalloc

        pixels = np.random.default_rng(2).integers(0, 256, (480, 640), dtype=np.uint8)
        frame = FrameRecord(1.0, pixels)
        tracemalloc.start()
        try:
            prepare_face(frame, side=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * pixels.size / 4, peak

    def test_synchronized_faces_are_float(self):
        pixels = np.full((20, 20), 255, dtype=np.uint8)
        traces = {c: make_trace(np.linspace(0.0, 1.0, 400), channel=c)
                  for c in (Channel.ECG, Channel.EDA)}
        frames = [FrameRecord(timestamp_s=1.0, image=pixels)]
        (sample,) = synchronize(traces, frames, AffectLabel(5, 5, 5), "p", "s", face_size=20)
        assert sample.face.image.dtype == np.float64
        np.testing.assert_array_equal(sample.face.image, 1.0)


class TestBilinearSample:
    """The row-then-column sampler gives the four-gather reference's bits."""

    @staticmethod
    def assert_same_bits(image, ys, xs):
        got = signals._bilinear_sample(image, ys, xs)
        want = bilinear_sample_four_gather(image, ys, xs)
        assert got.shape == want.shape == (len(ys), len(xs))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape,out", [((64, 64), (64, 64)), ((48, 80), (64, 64)),
                                           ((120, 90), (17, 33)), ((1, 7), (3, 5)),
                                           ((7, 1), (4, 4))])
    def test_random_grids(self, shape, out):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        image = rng.uniform(0, 1, size=shape)
        ys = np.sort(rng.uniform(0, shape[0] - 1, size=out[0]))
        xs = rng.uniform(0, shape[1] - 1, size=out[1])  # unsorted too
        self.assert_same_bits(image, ys, xs)

    @pytest.mark.parametrize("shape,out", [((64, 64), (64, 64)), ((120, 90), (17, 33)),
                                           ((1, 7), (3, 5)), ((7, 1), (4, 4))])
    def test_an_8_bit_image_is_read_as_pixel_over_255(self, shape, out):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        ys = np.sort(rng.uniform(-2, shape[0] + 1, size=out[0]))
        xs = rng.uniform(0.3 * shape[1], shape[1] + 1, size=out[1])  # unsorted, one side clipped
        got = signals._bilinear_sample(pixels, ys, xs)
        want = bilinear_sample_four_gather(pixels / 255.0, ys, xs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_clipped_at_every_edge(self):
        rng = np.random.default_rng(7)
        image = rng.standard_normal((30, 45))
        ys = np.concatenate([[-3.5, -0.0, 0.0, 28.999, 29.0, 29.5, 1e9], rng.uniform(-5, 35, 20)])
        xs = np.concatenate([[-1e-12, 44.0, 44.25, 60.0], rng.uniform(-5, 50, 30)])
        self.assert_same_bits(image, ys, xs)

    def test_resize_and_crop_match_the_reference(self, monkeypatch):
        rng = np.random.default_rng(8)
        image = rng.uniform(0, 1, size=(96, 128))
        pts = [(100.0, 2.0), (127.0, 40.0)]  # the margin runs past two edges

        def outputs():
            return [resize_image(image, 64), resize_image(image, 24),
                    crop_face(image, pts, side=64)]

        got = outputs()
        monkeypatch.setattr(signals, "_bilinear_sample", bilinear_sample_four_gather)
        for g, w in zip(got, outputs()):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


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

    @pytest.mark.parametrize("landmarks", [[(10.0, 8.0), (61.0, 57.0)], None])
    def test_a_face_is_cropped_from_its_frame_each_time_it_is_read(self, landmarks):
        traces, _, label = _session_pieces()
        rng = np.random.default_rng(4)
        frames = [FrameRecord(timestamp_s=1.0 + i, image=rng.integers(0, 256, (72, 80), np.uint8),
                              landmarks=landmarks) for i in range(3)]
        samples = synchronize(traces, frames, label, "p", "s", face_size=32)
        for sample, frame in zip(samples, frames):
            want = prepare_face(frame, side=32).view(np.uint64)
            assert sample.face.timestamp_s == frame.timestamp_s
            first = sample.face.image
            assert np.array_equal(first.view(np.uint64), want)
            # Not kept: a second read crops again, to the same bits.
            assert sample.face.image is not first
            assert np.array_equal(sample.face.image.view(np.uint64), want)
            # The model input holds the crop that its one read made.
            model_input = bmmn.ModelInput.from_sample(sample)
            assert np.array_equal(model_input.face_image.view(np.uint64), want)

    @pytest.mark.parametrize("eight_bit", [False, True])
    def test_a_face_shares_memory_neither_with_its_frame_nor_another_read(self, eight_bit):
        # A frame already at the face size is not cropped or resized.
        traces, _, label = _session_pieces()
        pixels = np.random.default_rng(6).integers(0, 256, (32, 32), np.uint8)
        image = pixels if eight_bit else pixels / 255.0
        frame = FrameRecord(timestamp_s=1.0, image=image)
        (sample,) = synchronize(traces, [frame], label, "p", "s", face_size=32)
        first, second = sample.face.image, sample.face.image
        assert not np.shares_memory(first, second)
        for face in (first, second):
            assert not np.shares_memory(face, frame.image)
        want = second.copy()
        first[:] = 0.0
        second[:] = 0.0
        assert np.array_equal(sample.face.image.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(frame.image, image)

    def test_uncroppable_landmarks_refused_when_synchronized(self):
        traces, _, label = _session_pieces()
        frames = [FrameRecord(timestamp_s=2.0, image=np.zeros((80, 80), np.uint8),
                              landmarks=[(8.0, 8.0), (8.0, 71.0)])]
        with pytest.raises(IngestError, match="degenerate"):
            synchronize(traces, frames, label, "p", "s")


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

    def test_a_segment_of_a_checked_trace_has_its_shape_checked(self):
        window = np.full(SEGMENT_LEN, 0.25)
        segment = BioSegment.of_checked_trace(Channel.EDA, window, 3)
        assert segment.window is window
        assert (segment.channel, segment.frame_index) == (Channel.EDA, 3)
        assert segment == BioSegment(Channel.EDA, window, 3)
        with pytest.raises(ShapeError):
            BioSegment.of_checked_trace(Channel.ECG, np.zeros(SEGMENT_LEN - 1), 0)

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
