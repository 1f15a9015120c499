"""The rotation estimate itself, pinned.

RANSAC's bytes used to be fixed only through what they feed — the
rotation-free field, the foreground mask two stages later, the e2e digest.
These goldens were recorded at fc89241 — the commit before RANSAC's
hypothesis loop moved behind the ``ransac_pairs`` hook — and are asserted on
the ``numpy`` reference and on ``cext``: for every ``estimate_rotation`` call
DiVE's agent makes on frames 1-4 of the three ``test_golden_pframes`` clips,
the estimate (``dphi_x``, ``dphi_y`` and ``residual`` as ``float.hex``,
``n_samples``, ``n_inliers``) and the agent generator's state after the call;
then, on the same motion field, Fig 7's random-500 baseline from a generator
seeded with the frame's index, its estimate and that generator's state.

``python tests/test_golden_rotation.py`` prints the table for the checkout on
``PYTHONPATH`` (how the values below were produced).
"""

import hashlib

import numpy as np
import pytest
from test_golden_mvfields import _clip
from test_golden_pframes import CLIPS, N_FRAMES

import repro.core.agent as agent
from repro import kernels
from repro.core import DiVEScheme
from repro.experiments import run_scheme, scaled_bandwidth
from repro.network import constant_trace

pytestmark = pytest.mark.kernels


def _state(rng):
    """A digest of a generator's whole state, buffered half-word included."""
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()[:16]


def _row(estimate, rng):
    return (estimate.dphi_x.hex(), estimate.dphi_y.hex(), estimate.n_samples, estimate.n_inliers,
            estimate.residual.hex(), _state(rng))


def _rotations(name):
    """``[(R-sampled row, random-500 row)]``, one per agent call."""
    clip = _clip(name)
    rows = []
    estimate_rotation = agent.estimate_rotation

    def recording(mv, intrinsics, **kwargs):
        estimate = estimate_rotation(mv, intrinsics, **kwargs)
        baseline_rng = np.random.default_rng(len(rows))
        baseline = estimate_rotation(mv, intrinsics, k=500, sampling="random", rng=baseline_rng)
        rows.append((_row(estimate, kwargs["rng"]), _row(baseline, baseline_rng)))
        return estimate

    trace = constant_trace(scaled_bandwidth(2.0, clip))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "estimate_rotation", recording)
        run_scheme(DiVEScheme(), clip, trace, ground_truth=[[]] * N_FRAMES)
    return rows


#: Recorded at fc89241.
GOLDEN = {
    'kitti': [
        (('-0x1.b254c750b75a3p-7', '0x1.303cdde7c2513p-8', 70, 70, '0x1.dd10fab770b2fp+3', 'd5f6e7bfde4c84f5'), ('-0x1.ace1653ded350p-8', '0x1.f167675b762aep-11', 438, 438, '0x1.bd987fe695b55p+3', '538b0855810dea66')),
        (('-0x1.05514cb63a984p-7', '-0x1.2d4105d52e5c6p-8', 70, 70, '0x1.f3c24335822efp+3', '5a6211a4c70946f5'), ('-0x1.7afbb70c78b3dp-8', '-0x1.826de042c6ef5p-8', 419, 419, '0x1.ca192a7f69d53p+3', 'eef5186e119975c6')),
        (('-0x1.0eebe130c99e7p-7', '0x1.7a73dc8a215c8p-8', 70, 70, '0x1.888c1a775f08dp+3', '88ea8548353c605c'), ('-0x1.36c563e85666ap-8', '0x1.3b5a9d91a596bp-7', 397, 397, '0x1.81ae1e28f92cep+3', '79bfe61dd9d611d8')),
        (('-0x1.608c5ae387cb0p-7', '-0x1.8df0c96714924p-14', 70, 70, '0x1.49ce47d2fb52ep+3', 'abfe59edcf1546b8'), ('-0x1.93f09f28eeb64p-8', '0x1.3019f7abaae2cp-9', 462, 462, '0x1.65bb29d211f3fp+3', 'ffbe7dd0b13b0654')),
    ],
    'nuscenes': [
        (('-0x1.bd9503d5c4623p-8', '-0x1.c670b61992c5dp-9', 70, 70, '0x1.e75d43ea8ff8ap+2', '27d49178b8eae693'), ('-0x1.6177f87f86e6ep-8', '0x1.5f6bd4c37a977p-8', 492, 492, '0x1.374ad1805708ep+3', '267c2ffde858024e')),
        (('0x1.1ac799130e2a7p-10', '0x1.1db84877a2ed8p-11', 70, 35, '0x1.4bab2910267ddp-2', 'c85cff3c0b5e9d15'), ('-0x1.abcc36b7d7815p-9', '0x1.9c23f50c7cd86p-10', 441, 441, '0x1.078a3a63585d1p+3', '01b68a5879e8d1ee')),
        (('-0x1.28182f1c021ffp-9', '-0x1.d84c4cf1cc710p-8', 70, 70, '0x1.864803df966a5p+2', 'eed5bdb83cf17f27'), ('-0x1.fefaf8d690c15p-9', '-0x1.94cc9a7e28c54p-10', 372, 372, '0x1.02584d59d1c07p+3', '9e388c7634882caf')),
        (('-0x1.31983327739c6p-11', '-0x1.07a2cdf9364e6p-11', 70, 39, '0x1.c5f95d08f49f9p-3', '0ada23118d845ad5'), ('-0x1.0d2723bc57269p-11', '0x1.65b02f2c33028p-14', 407, 209, '0x1.431f4594642c4p-2', '448923db9b72323f')),
    ],
    'robotcar': [
        (('-0x1.c8c0436a7f79fp-7', '0x1.cccab7209f051p-7', 70, 70, '0x1.837573b42e1bdp+2', '73f93aeb1435ee26'), ('-0x1.453a7b964817fp-8', '0x1.483ca5220c56ap-7', 220, 220, '0x1.9582564fc1f60p+2', '99c50c28966f6d2e')),
        (('-0x1.ca8661b73e817p-13', '0x1.59fcfd9716f20p-7', 70, 70, '0x1.72773b138ebb1p+2', '3b56a76ebc4fbd46'), ('0x1.47f8134f00562p-10', '0x1.b4707b416e5fap-11', 206, 123, '0x1.5e47e66a3a705p-2', '6b245b3a58da016d')),
        (('0x1.1bcd8a0e92217p-11', '-0x1.3e1f7f346bed0p-13', 70, 36, '0x1.3e53ba553d64bp-2', '41495d41087a0cb7'), ('0x1.a2095d25209eep-12', '-0x1.14ca42a6ecc27p-11', 183, 108, '0x1.27c15f8b8d50ep-2', '71ba066d73da57bc')),
        (('-0x1.b445897b45f69p-9', '0x1.9daaa0d780d52p-8', 70, 70, '0x1.46af7cf5e66d3p+2', 'acfe6a961399ee4d'), ('0x1.8e90fec77c426p-12', '0x1.5b2741194327ep-11', 164, 99, '0x1.3ee7e93fb6c53p-2', 'a8438bace03e39d5')),
    ],
}


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("clip", sorted(CLIPS))
def test_rotation_matches_the_parent_commit(clip, kernel_backend):
    assert _rotations(clip) == GOLDEN[clip]


def test_the_goldens_cover_every_p_frame():
    assert all(len(GOLDEN[clip]) == N_FRAMES - 1 for clip in CLIPS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for clip_name in sorted(CLIPS):
        print(f"    {clip_name!r}: [")
        for row in _rotations(clip_name):
            print(f"        {row!r},")
        print("    ],")
    print("}")
