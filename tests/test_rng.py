import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heislab.rng import child_seed, mix64, path_generator

ROOT = Path(__file__).resolve().parents[1]


def fresh_generator(seed, path_index):
    """The reference route: a new Philox built from the path's key."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, 0, path_index)))


class TestGoldenValues:
    """Literal keys and draws; any drift in the key layout or the re-keying fails."""

    @pytest.mark.parametrize("parts, expected", [
        ((0,), 13379413122819086221),
        ((1, "a"), 17756399641620844263),
        ((-1, 0, 5), 15848495940153575102),
        ((-(2**40) - 3, "mollifier", 0), 16811070152883113215),
        ((2**40, 0, 2**45 + 7), 1823567421699483593),
        ((7, "sampler-T0.5", 0), 7755607190105337185),
        (("x",), 1443231638827303133),
        ((), 13020603013274838756),
    ])
    def test_mix64(self, parts, expected):
        assert mix64(*parts) == expected

    def test_child_seed(self):
        assert child_seed(2024, "c7", 0) == 13522731995232872064

    @pytest.mark.parametrize("seed, index, expected", [
        (0, 0, [1.0621246542728366, -0.45479140814455865, 1.0709223279859246,
                -1.661161129123235, -1.2131148386731292, 1.20115542911437,
                -0.27640374833406584, 1.1332176388451953]),
        (7, 3, [0.8545980899364624, -0.3728237540770218, 0.7908132242802759,
                -0.4573090777826695, 0.2176192301323442, -1.610716233404853,
                -0.34306658554574987, 1.6986268905139963]),
        (2024, 199999, [0.5013736031593771, -0.03570986302993534, -1.2411094750406872,
                        -0.026422321735320956, 0.1088913740600981, -1.131674475994923,
                        0.5908946157024704, 0.07868486985446428]),
        (-5, 2**40, [1.0969157344860276, -1.0348608718797678, 0.8684669962795446,
                     1.20478208251659, 0.03570467824033212, -1.1120496938436166,
                     0.8068222180781199, 0.10212426582231593]),
    ])
    def test_first_normals(self, seed, index, expected):
        assert path_generator(seed, index).standard_normal(8).tolist() == expected


class TestRekeying:
    """Re-keying the shared Philox gives a fresh Philox's stream, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40 + 1])
    def test_matches_a_fresh_philox(self, seed):
        out = np.empty((13, 3))
        for index in range(300):
            path_generator(seed, index).standard_normal(out=out)
            expected = fresh_generator(seed, index).standard_normal((13, 3))
            assert out.tobytes() == expected.tobytes(), index

    @pytest.mark.parametrize("partial_draw", [
        lambda g: g.integers(0, 2**32 - 1, size=5, dtype=np.uint32),   # spare 32-bit half
        lambda g: g.random(),                                           # part of the buffer
        lambda g: g.standard_normal(7),
    ])
    def test_rekey_after_a_partial_draw(self, partial_draw):
        for index in range(20):
            partial_draw(path_generator(11, 1000 + index))
            got, ref = path_generator(11, index), fresh_generator(11, index)
            assert got.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist() == \
                ref.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist()
            assert got.random(5).tobytes() == ref.random(5).tobytes()
            assert got.standard_normal(9).tobytes() == ref.standard_normal(9).tobytes()

    def test_the_next_call_rekeys_a_held_generator(self):
        held = path_generator(5, 1)
        held.standard_normal(3)
        assert path_generator(5, 2) is held
        # the held generator now continues the second key's stream
        assert held.standard_normal(6).tobytes() == \
            fresh_generator(5, 2).standard_normal(6).tobytes()


def test_setup_does_not_load_numpy_random(tmp_path):
    # the benchmark's set-up steps in a fresh interpreter: the shared Philox
    # is built on first use, so numpy.random stays unloaded until a path is drawn
    code = f"""
import sys
import heislab.cli as cli
for experiment in ("simulate", "verify-harnack", "verify-cd", "curvature"):
    cfg = cli.load_config(experiment, None, None, {str(tmp_path)!r})
    preset = cli.make_preset(cfg.preset_name, **cfg.preset_params)
    cli.curvature_constants(preset.form)
print("numpy.random" in sys.modules)
from heislab.rng import path_generator
path_generator(0, 0)
print("numpy.random" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
