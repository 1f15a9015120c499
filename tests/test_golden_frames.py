"""The rendered frame itself, pinned.

Detection digests (golden e2e, fleet) only see the renderer through the
detector; these tests fix the pixels, the id-buffer and the annotations of
six frames across the three dataset presets at 320x192, recorded at commit
386d7ea — before ``value_noise`` became a dispatched kernel and before the
renderer gathered each surface once — and four more at the perf ruler's
other two resolutions (nuScenes-like 480x288, turning KITTI-like 640x192),
recorded at 3f305e5, before ``render_surfaces`` became a dispatched kernel;
all are asserted on the numpy reference and on the compiled backend alike.
A renderer or noise change that moves a single bit of a frame fails here
first, and names the frame.

The sky's pixels go through ``np.arctan2``, which numpy computes with its
own SIMD code on AVX-512 hosts and with libm's ``atan2`` elsewhere; the two
differ in the last bit for some inputs, so a digest recorded on one kind of
host can fail on the other without any change to this repository.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import kernels
from repro.world import kitti_like, nuscenes_like, robotcar_like

RESOLUTION = (320, 192)
FRAMES = (0, 7)

CLIPS = {
    "nuscenes": lambda: nuscenes_like(11, n_frames=8, resolution=RESOLUTION),
    "robotcar": lambda: robotcar_like(11, n_frames=8, resolution=RESOLUTION),
    "kitti": lambda: kitti_like(5, n_frames=8, resolution=RESOLUTION, turning=True),
    "nuscenes-480x288": lambda: nuscenes_like(11, n_frames=8, resolution=(480, 288)),
    "kitti-640x192": lambda: kitti_like(5, n_frames=8, resolution=(640, 192), turning=True),
}

#: ``(clip, frame) -> (sha256(image bytes + id-buffer bytes), annotations)``
#: with annotations as ``(object_id, kind, bbox, depth, visibility, pixel_count)``.
GOLDEN_FRAMES = {
    ('nuscenes', 0): (
        'd8c44ba8291de9f576aa1081d450ae9b90624dd005316f41bd2c6fcec1f57617',
        (
            (15, 'car', (34.0, 96.0, 72.0, 126.0), 14.0, 1.0, 1140),
            (16, 'car', (104.0, 96.0, 123.0, 111.0), 28.0, 1.0, 285),
            (17, 'car', (185.0, 96.0, 198.0, 106.0), 42.0, 1.0, 130),
            (18, 'car', (140.0, 96.0, 143.0, 102.0), 70.0, 0.375, 18),
            (19, 'car', (143.0, 96.0, 167.0, 115.0), 22.401030655733244, 1.0, 456),
            (22, 'car', (126.0, 96.0, 140.0, 108.0), 36.02923230013288, 1.0, 168),
            (24, 'pedestrian', (219.0, 94.0, 224.0, 109.0), 33.0, 1.0, 75),
            (26, 'pedestrian', (86.0, 93.0, 93.0, 114.0), 23.551005499626903, 1.0, 147),
        ),
    ),
    ('nuscenes', 7): (
        '04006ba798312a2af6bc294550a7b5dbde05aee66f1656b7c3f19609f87fe86e',
        (
            (15, 'car', (0.0, 95.0, 23.0, 142.0), 9.04437048787947, 1.0, 1081),
            (16, 'car', (92.0, 95.0, 115.0, 114.0), 23.044344064819544, 1.0, 437),
            (17, 'car', (189.0, 95.0, 203.0, 107.0), 37.04431764175962, 1.0, 168),
            (18, 'car', (136.0, 95.0, 144.0, 102.0), 65.04426479563978, 1.0, 56),
            (19, 'car', (144.0, 95.0, 167.0, 113.0), 23.577941009646004, 1.0, 414),
            (22, 'car', (115.0, 95.0, 132.0, 112.0), 25.20286833105036, 0.8095238095238095, 289),
            (24, 'pedestrian', (230.0, 93.0, 237.0, 111.0), 27.46144912553712, 1.0, 126),
            (25, 'pedestrian', (134.0, 94.0, 136.0, 101.0), 71.16963907039731, 1.0, 14),
            (26, 'pedestrian', (74.0, 92.0, 83.0, 118.0), 18.595115103346874, 1.0, 234),
        ),
    ),
    ('robotcar', 0): (
        '352aef1edba6481ff6257d52034d0ff1b391069ad5a05475ad940d6f5055ece3',
        (
            (18, 'car', (39.0, 96.0, 76.0, 126.0), 14.0, 1.0, 1110),
            (19, 'car', (121.0, 96.0, 134.0, 106.0), 42.0, 1.0, 130),
            (20, 'car', (147.0, 96.0, 164.0, 109.0), 32.49287658089258, 1.0, 221),
            (22, 'car', (137.0, 96.0, 147.0, 104.0), 53.204849717462295, 1.0, 80),
            (24, 'pedestrian', (99.0, 94.0, 104.0, 109.0), 33.0, 1.0, 75),
            (25, 'pedestrian', (204.0, 94.0, 207.0, 105.0), 44.0, 1.0, 33),
            (28, 'pedestrian', (71.0, 92.0, 80.0, 117.0), 19.76043784054782, 0.5333333333333333, 120),
            (29, 'pedestrian', (111.0, 94.0, 116.0, 108.0), 36.14604255724937, 1.0, 70),
        ),
    ),
    ('robotcar', 7): (
        '3c6b72b77bf214e4957007e91d41114636bc0c5dad2fbdaeed1d515b6fc39c24',
        (
            (18, 'car', (4.0, 96.0, 53.0, 134.0), 10.901197980354834, 1.0, 1862),
            (19, 'car', (118.0, 96.0, 132.0, 107.0), 38.901196771538864, 1.0, 154),
            (20, 'car', (147.0, 96.0, 164.0, 109.0), 31.57837772923684, 1.0, 221),
            (22, 'car', (134.0, 96.0, 145.0, 105.0), 47.20099474779619, 1.0, 99),
            (24, 'pedestrian', (92.0, 94.0, 97.0, 110.0), 29.398908992512695, 1.0, 80),
            (25, 'pedestrian', (208.0, 94.0, 212.0, 106.0), 40.27316622935147, 1.0, 48),
            (27, 'pedestrian', (132.0, 95.0, 134.0, 102.0), 74.53215610124941, 1.0, 14),
            (28, 'pedestrian', (62.0, 92.0, 72.0, 121.0), 16.66167230264921, 1.0, 290),
            (29, 'pedestrian', (102.0, 94.0, 107.0, 109.0), 33.04727631195146, 1.0, 75),
        ),
    ),
    ('kitti', 0): (
        'bfdd3ad8d664fa4bf5e8d920df31300aae6b51f863d63e7a12e6e27efcee559a',
        (
            (8, 'car', (140.0, 98.0, 163.0, 116.0), 22.85318897553038, 1.0, 414),
            (9, 'car', (155.0, 97.0, 165.0, 105.0), 51.35139478098503, 0.3, 24),
            (10, 'car', (126.0, 97.0, 140.0, 109.0), 36.025038310530014, 1.0, 168),
            (11, 'pedestrian', (211.0, 95.0, 216.0, 110.0), 33.191457256688416, 1.0, 75),
        ),
    ),
    ('kitti', 7): (
        '485c91f7416e9c8736fa7cd648fe9e9f8365ab537fe6cb13ef16852a8d89c4d6',
        (
            (8, 'car', (128.0, 98.0, 151.0, 116.0), 22.42982131060632, 1.0, 414),
            (9, 'car', (143.0, 97.0, 154.0, 105.0), 51.07799188514732, 0.36363636363636365, 32),
            (10, 'car', (98.0, 98.0, 119.0, 114.0), 24.81540532156718, 1.0, 336),
            (11, 'pedestrian', (211.0, 95.0, 217.0, 113.0), 27.332931507551972, 1.0, 108),
        ),
    ),
    ('nuscenes-480x288', 0): (
        '6ea57643d8ab79bab6688bbbe4b8aa6335a272134ff5657ba11de596010c5242',
        (
            (15, 'car', (51.0, 144.0, 107.0, 189.0), 14.0, 1.0, 2520),
            (16, 'car', (156.0, 144.0, 184.0, 166.0), 28.0, 1.0, 616),
            (17, 'car', (278.0, 144.0, 297.0, 159.0), 42.0, 1.0, 285),
            (18, 'car', (210.0, 144.0, 215.0, 153.0), 70.0, 0.4166666666666667, 45),
            (19, 'car', (215.0, 144.0, 250.0, 172.0), 22.401030655733244, 1.0, 980),
            (22, 'car', (188.0, 144.0, 210.0, 161.0), 36.02923230013288, 1.0, 374),
            (24, 'pedestrian', (328.0, 141.0, 336.0, 163.0), 33.0, 1.0, 176),
            (26, 'pedestrian', (128.0, 140.0, 139.0, 171.0), 23.551005499626903, 1.0, 341),
        ),
    ),
    ('nuscenes-480x288', 7): (
        'dbc1bbb0c82f64036dd97a730424809c51b80174be7cf0ead8ad6ec57cead629',
        (
            (15, 'car', (0.0, 143.0, 35.0, 212.0), 9.04437048787947, 1.0, 2415),
            (16, 'car', (138.0, 143.0, 172.0, 170.0), 23.044344064819544, 1.0, 918),
            (17, 'car', (283.0, 143.0, 305.0, 160.0), 37.04431764175962, 1.0, 374),
            (18, 'car', (204.0, 143.0, 216.0, 153.0), 65.04426479563978, 1.0, 120),
            (19, 'car', (216.0, 143.0, 250.0, 170.0), 23.577941009646004, 1.0, 918),
            (22, 'car', (172.0, 143.0, 198.0, 168.0), 25.20286833105036, 0.8125, 650),
            (24, 'pedestrian', (346.0, 139.0, 355.0, 166.0), 27.46144912553712, 1.0, 243),
            (25, 'pedestrian', (201.0, 142.0, 205.0, 152.0), 71.16963907039731, 0.775, 31),
            (26, 'pedestrian', (111.0, 138.0, 124.0, 177.0), 18.595115103346874, 1.0, 507),
        ),
    ),
    ('kitti-640x192', 0): (
        '4d0a01993ca9beab1c70459eefa147cdca7aaf889e46ac71195e2c968936a86c',
        (
            (8, 'car', (280.0, 100.0, 326.0, 136.0), 22.85318897553038, 1.0, 1656),
            (9, 'car', (310.0, 98.0, 330.0, 114.0), 51.35139478098503, 0.3, 96),
            (10, 'car', (251.0, 98.0, 281.0, 122.0), 36.025038310530014, 0.9694444444444444, 698),
            (11, 'pedestrian', (423.0, 94.0, 433.0, 124.0), 33.191457256688416, 1.0, 300),
        ),
    ),
    ('kitti-640x192', 7): (
        '095a9bfc7721da22983c199ddbaf85c65d6b40d13287f27bcb7fe87382397ee1',
        (
            (8, 'car', (255.0, 99.0, 303.0, 137.0), 22.42982131060632, 1.0, 1824),
            (9, 'car', (287.0, 97.0, 307.0, 114.0), 51.07799188514732, 0.29411764705882354, 100),
            (10, 'car', (196.0, 99.0, 239.0, 133.0), 24.81540532156718, 1.0, 1462),
            (11, 'pedestrian', (421.0, 94.0, 433.0, 129.0), 27.332931507551972, 1.0, 420),
        ),
    ),
}


def frame_digest(record):
    return hashlib.sha256(record.image.tobytes() + record.id_buffer.tobytes()).hexdigest()


def annotation_tuples(record):
    return tuple(
        (a.object_id, a.kind, a.bbox, a.depth, a.visibility, a.pixel_count)
        for a in record.annotations
    )


@pytest.mark.parametrize("backend", ["numpy", "cext"])
@pytest.mark.parametrize("clip_name", list(CLIPS))
def test_golden_frames(backend, clip_name):
    if backend not in kernels.available_backends():
        pytest.skip(f"{backend}: {kernels.backend(backend).why_unavailable()}")
    clip = CLIPS[clip_name]()
    with kernels.use_backend(backend):
        for index in FRAMES:
            record = clip.render_at(index)
            digest, annotations = GOLDEN_FRAMES[clip_name, index]
            assert annotation_tuples(record) == annotations, (clip_name, index)
            assert frame_digest(record) == digest, (clip_name, index)


@pytest.mark.timeout(120)
def test_concurrent_render_at_is_byte_identical():
    """Rendering runs on several threads at once under an ``agent_workers``
    pool, and ``Clip.render_at`` is documented as safe to share: the
    renderer keeps nothing about a render on itself, so four threads
    rendering one index get four equal records."""
    clip = CLIPS["nuscenes"]()
    digest, annotations = GOLDEN_FRAMES["nuscenes", 7]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            records = list(pool.map(clip.render_at, [7] * 8, timeout=90))
    finally:
        sys.setswitchinterval(interval)
    assert len(records) == 8
    for record in records:
        assert frame_digest(record) == digest
        assert annotation_tuples(record) == annotations
