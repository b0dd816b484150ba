"""PlanKey: the stable, hashable identity of a compiled plan."""

import numpy as np
import pytest

from repro.accel import PlanKey, compile_program
from repro.accel.compiler import compressor_key
from repro.core import make_compressor


def _key(**overrides):
    base = dict(
        platform="ipu",
        input_shapes=((4, 3, 32, 32),),
        method="dc",
        cf=4,
        s=2,
        block=8,
        direction="compress",
    )
    base.update(overrides)
    return PlanKey(**base)


class TestPlanKeyIdentity:
    def test_identical_configs_compare_equal(self):
        assert _key() == _key()
        assert hash(_key()) == hash(_key())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("platform", "a100"),
            ("input_shapes", ((8, 3, 32, 32),)),
            ("method", "sg"),
            ("cf", 7),
            ("s", 4),
            ("block", 16),
            ("direction", "decompress"),
        ],
    )
    def test_any_field_change_breaks_equality(self, field, value):
        assert _key(**{field: value}) != _key()

    def test_usable_as_dict_key(self):
        table = {_key(): "plan"}
        assert table[_key()] == "plan"

    def test_shape_normalization(self):
        # List-of-lists callers must hash identically to tuple callers.
        loose = PlanKey(platform="ipu", input_shapes=[[4, 3, 32, 32]])
        assert loose == PlanKey(platform="ipu", input_shapes=((4, 3, 32, 32),))
        assert hash(loose) == hash(PlanKey(platform="ipu", input_shapes=((4, 3, 32, 32),)))

    def test_for_compressor_wraps_single_shape(self):
        key = PlanKey.for_compressor(
            "ipu", (4, 3, 32, 32), method="dc", cf=4, s=2, block=8, direction="compress"
        )
        assert key.input_shapes == ((4, 3, 32, 32),)
        assert "ipu" in key.describe() and "cf=4" in key.describe()

    def test_interned_key_accepts_numpy_shape_entries(self):
        args = ("ipu", "dc", 4, 2, 8, "compress")
        plain = compressor_key(args[0], (4, 3, 32, 32), *args[1:])
        numpy_dims = compressor_key(
            args[0], tuple(np.int64(d) for d in (4, 3, 32, 32)), *args[1:]
        )
        assert numpy_dims == plain and hash(numpy_dims) == hash(plain)
        assert {plain: "plan"}[numpy_dims] == "plan"
        assert all(type(d) is int for d in numpy_dims.input_shapes[0])
        # Interned: equal arguments return the one key object.
        assert compressor_key(args[0], (4, 3, 32, 32), *args[1:]) is plain
        assert PlanKey.for_compressor(
            "ipu", [4, 3, 32, 32], method="dc", cf=4, s=2, block=8, direction="compress"
        ) is plain


class TestCompiledProgramKey:
    def test_two_identical_compiles_share_a_key(self):
        comp = make_compressor(32, cf=4)
        example = np.zeros((2, 3, 32, 32), np.float32)
        p1 = compile_program(comp.compress, example, "ipu")
        p2 = compile_program(comp.compress, example, "ipu")
        assert p1.key is not None
        assert p1.key == p2.key

    def test_auto_key_separates_platform_and_shape(self):
        comp = make_compressor(32, cf=4)
        a = compile_program(comp.compress, np.zeros((2, 3, 32, 32), np.float32), "ipu")
        b = compile_program(comp.compress, np.zeros((2, 3, 32, 32), np.float32), "a100")
        c = compile_program(comp.compress, np.zeros((4, 3, 32, 32), np.float32), "ipu")
        assert len({a.key, b.key, c.key}) == 3

    def test_explicit_key_is_attached_verbatim(self):
        comp = make_compressor(32, cf=4)
        key = PlanKey.for_compressor(
            "ipu", (2, 3, 32, 32), method="dc", cf=4, s=2, block=8, direction="compress"
        )
        program = compile_program(
            comp.compress, np.zeros((2, 3, 32, 32), np.float32), "ipu", key=key
        )
        assert program.key == key
