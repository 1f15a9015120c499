"""The motion field itself, pinned.

MV bytes used to be fixed only through what they feed — P-frame levels,
foreground masks, the e2e digest.  These goldens were recorded at 71680fe —
the commit before the whole DIA / HEX / UMH search moved behind the one
``pattern_search`` hook — and are asserted on the ``numpy`` reference and on
``cext``: the sha256 of ``mv.tobytes()`` and ``sad.tobytes()`` of every
``estimate_motion`` call DiVE's agent makes on frames 1-4 of the three
``test_golden_pframes`` clips (each against the encoder's reconstruction of
the frame before, under the clip's own ``search_range_for``), once per
pattern method.  The exhaustive methods are pinned on the ``robotcar`` clip
(search range 16) by goldens recorded at 06635e1, the commit before ESA and
TESA became one plain cost volume; neither dispatches to a kernel, so they
run once, on the host's default backend.

``python tests/test_golden_mvfields.py`` prints the table for the checkout on
``PYTHONPATH`` (how the values below were produced).
"""

import functools
import hashlib

import pytest
from test_golden_pframes import CLIPS, N_FRAMES

import repro.core.agent as agent
from repro import kernels
from repro.core import DiVEConfig, DiVEScheme
from repro.experiments import run_scheme, scaled_bandwidth
from repro.network import constant_trace

pytestmark = pytest.mark.kernels

METHODS = ("dia", "hex", "umh")
EXHAUSTIVE = ("esa", "tesa")


@functools.lru_cache(maxsize=None)
def _clip(name):
    """The clip, rendered once per session on the host's default backend
    (the renderer's bytes do not depend on it — ``test_golden_frames``)."""
    with kernels.use_backend(kernels.AUTO):
        return CLIPS[name][0]().preload()


def _mvfields(name, method):
    """``[(search_range, mv digest, sad digest)]``, one per agent call."""
    clip = _clip(name)
    rows = []
    estimate_motion = agent.estimate_motion

    def recording(current, reference, **kwargs):
        estimate = estimate_motion(current, reference, **kwargs)
        assert kwargs["method"] == method
        rows.append((
            kwargs["search_range"],
            hashlib.sha256(estimate.mv.tobytes()).hexdigest()[:24],
            hashlib.sha256(estimate.sad.tobytes()).hexdigest()[:24],
        ))
        return estimate

    trace = constant_trace(scaled_bandwidth(2.0, clip))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "estimate_motion", recording)
        # Only the motion fields are read: no ground truth to score against.
        run_scheme(DiVEScheme(DiVEConfig(me_method=method)), clip, trace, ground_truth=[[]] * N_FRAMES)
    return rows


#: Recorded at 71680fe (numpy and cext agreed there too).
GOLDEN = {
    ('kitti', 'dia'): [
        (32, '46982ee19a495c58c32c57bd', 'efd8057cc4f37cff32990478'),
        (32, '4beb4dc225c5f4832cfbf20d', 'a78e1d01869b369809647956'),
        (32, '5a1b9aa2a45993f69c9be910', '08bf30a94167b6f2692d5ff0'),
        (32, 'd956883575c06ed74288b3d7', '7af9b970d1f96b9e085b0c3c'),
    ],
    ('kitti', 'hex'): [
        (32, '6bd53f08a008cedf09468826', 'a6fb48ec12a9655da5fea419'),
        (32, 'f5a822340bda4f13797b6251', '5bd756707f6a0a373584f9c2'),
        (32, '438615c49ce614be7a1997a9', '9aee753335328da00d828521'),
        (32, '460475c141005fba8fd3266a', '304f73afa0a4ab98c483c62f'),
    ],
    ('kitti', 'umh'): [
        (32, '35b18f61ffa41f182fdc5bb2', '3718e5d6943950c7a515c79c'),
        (32, 'd89b7b7ec6efb00089f379ce', '585e8abde64dd20f3a14d648'),
        (32, '12c61707b0e0409ca301177c', '7ba46f038e4f2ee06cf33dff'),
        (32, 'bcfa6f3c164921298cb63678', '25acdc29d5ce043afb28cc85'),
    ],
    ('nuscenes', 'dia'): [
        (24, '5ee70be316e85a63e0632515', 'd6db90a2c5aec4b2968f34b6'),
        (24, '7ef5d0b09b557a7f15bd06c3', 'bcbb0f0abeaf9c456a4a2471'),
        (24, 'f9c5c1bb8734c8303ac2b0d6', '6047193205dae996b90d28e3'),
        (24, '5e4e86c6bc2df92b81c943a4', '71adb806b7cbec99f3d1c2f4'),
    ],
    ('nuscenes', 'hex'): [
        (24, '0ccf7c554ea7b6208cd958a5', 'a544d9791e2d14d96d2adba7'),
        (24, '8c8ce183abba67084cfede87', '1027cdad767a24472e46379a'),
        (24, '12ef949b25e0052ea3bda6db', '63f45dd10c310fc24f897a98'),
        (24, '6ca2df609efce7d527025b1a', '81343cecb1570643bb46602a'),
    ],
    ('nuscenes', 'umh'): [
        (24, 'c3a6892ea9941db39adf9ce9', 'fb61ad832c107a4393e93fea'),
        (24, 'f712863376b58b532bb01a81', '5e5e1d706733fdee4421b0d4'),
        (24, '8fe52f980ce86681c0784732', 'b0eb7c9a47ecc39669b07d6f'),
        (24, '3bae286a4b2aa88772535d6d', '8f384744c60acc4c9c5b6a2c'),
    ],
    ('robotcar', 'dia'): [
        (16, 'f3f9ce71af95190ed0c73522', '8d0931ef680b8c06af891b4d'),
        (16, '5c38568380cd3091bfdd84f2', '45bc4ff1801bda8b523f5725'),
        (16, '24a114a3f86a67de39f63ac0', '2efa956f91146dbe40e7beba'),
        (16, '67a630f0588c17b391e04f8d', 'bf53423f1cbf168e0a631dad'),
    ],
    ('robotcar', 'hex'): [
        (16, '95e23c97dcf20192abf04d2b', 'f94c5c54db7d6d3503beebfd'),
        (16, '96bbe17f23e03ba706b7353c', 'e057d14677047e535832c16a'),
        (16, 'ad267c27d9604fe364395ba7', '3676733c3cc09a7c6971c7eb'),
        (16, '6bce34de176df246b71ecfa0', 'b8b8f243f146d935120fe856'),
    ],
    ('robotcar', 'umh'): [
        (16, 'fb2ebb6cfdf57c51c825f548', 'a1393c51b2dcff013be541f7'),
        (16, '886fe7c73696e33cc5e5edde', 'e651859e5ff8f9ad01df794a'),
        (16, 'c13ba68cf25131d0a59161f1', 'c1728169f9a56f04aa6b680e'),
        (16, 'e8a62457ac15196506fd817c', '6a16889c36a2765af0862a29'),
    ],
    # Recorded at 06635e1.
    ('robotcar', 'esa'): [
        (16, '62ab21d1b57701d3d74e12bf', '18809e667bc69ee98b09763e'),
        (16, '4e820103a7042e9ed86e34ce', 'e6709a8d8a60175de508f0a2'),
        (16, 'aee09c1d35d970bdc26a5ccf', 'df265a6bf89737a38dfe91c8'),
        (16, '55ed2e19d2d5b8edd163d261', 'b677a2d9ccd677a5c0f8f2b7'),
    ],
    ('robotcar', 'tesa'): [
        (16, 'd6174486cd1cf6f0d8eba691', 'c223ea486f20ebd58bc49d3b'),
        (16, '9c9365800d07c60f78aa54e8', '54365f38a5f29d5879540e24'),
        (16, '9fb43add73a90096914e9b24', '4651f5007da4f161ffa75ee4'),
        (16, 'fc1438942e0e4862be56e529', '5674c4d31ca5ed2645bbfa6f'),
    ],
}


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("clip", sorted(CLIPS))
def test_mvfields_match_the_parent_commit(clip, method, kernel_backend):
    assert _mvfields(clip, method) == GOLDEN[clip, method]


@pytest.mark.parametrize("method", EXHAUSTIVE)
def test_exhaustive_mvfields_match_the_parent_commit(method):
    assert _mvfields("robotcar", method) == GOLDEN["robotcar", method]


def test_the_goldens_cover_every_p_frame_and_tell_the_methods_apart():
    for clip in CLIPS:
        methods = [m for m in METHODS + EXHAUSTIVE if (clip, m) in GOLDEN]
        fields = [GOLDEN[clip, method] for method in methods]
        assert all(len(rows) == N_FRAMES - 1 for rows in fields)
        assert len({rows[0][1] for rows in fields}) == len(methods)
    assert {clip for clip, method in GOLDEN if method in EXHAUSTIVE} == {"robotcar"}


if __name__ == "__main__":
    print("GOLDEN = {")
    for clip_name in sorted(CLIPS):
        for method_name in METHODS:
            print(f"    ({clip_name!r}, {method_name!r}): [")
            for row in _mvfields(clip_name, method_name):
                print(f"        {row!r},")
            print("    ],")
    for method_name in EXHAUSTIVE:
        print(f"    ('robotcar', {method_name!r}): [")
        for row in _mvfields("robotcar", method_name):
            print(f"        {row!r},")
        print("    ],")
    print("}")
