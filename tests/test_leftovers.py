"""Coverage for small API corners plus example-module import smoke tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.world import EgoTrajectory, Scene, StraightSegment, parked_car
from repro.world.scene import GROUND_ID, SKY_ID

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


class TestExamplesImportable:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_imports_and_has_main(self, path):
        """Examples must at least import cleanly and expose main()."""
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            assert callable(getattr(module, "main", None))
        finally:
            sys.modules.pop(spec.name, None)

    def test_examples_present(self):
        assert len(EXAMPLES) >= 5
        assert any(p.stem == "quickstart" for p in EXAMPLES)


class TestSceneCorners:
    def test_object_by_id_unknown(self):
        scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), objects=[parked_car(0, 10)])
        assert scene.object_by_id(2).kind == "car"
        with pytest.raises((KeyError, IndexError)):
            scene.object_by_id(99)

    def test_surface_ids_reserved(self):
        scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), objects=[parked_car(0, 10)])
        assert scene.objects[0].object_id not in (SKY_ID, GROUND_ID)

    def test_duration(self):
        scene = Scene(trajectory=EgoTrajectory([StraightSegment(2.5, 5.0)]))
        assert scene.duration == pytest.approx(2.5)


class TestClipIteration:
    def test_frames_generator(self):
        from repro.world import nuscenes_like

        clip = nuscenes_like(3, n_frames=3, resolution=(320, 192))
        records = list(clip.frames())
        assert [r.index for r in records] == [0, 1, 2]
        assert all(r.image.shape == (192, 320) for r in records)
