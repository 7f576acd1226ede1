"""The package's export list, its declared Python floor, and the rules
that errors.py alone keeps."""
import ast
import pathlib
import re

import numpy as np
import pytest

import ssnorm
from ssnorm import (OptimizerConfig, SsnParams, ToyModelConfig, fold_bn_into_affine,
                    is_smooth_point, softmax, sparsemax, sparsestmax, sparsestmax_vjp,
                    ssn_backward, ssn_forward, train, update_running_stats)
from ssnorm.errors import InvalidInputError, check_array, check_integer, check_real


def test_export_list_resolves_without_duplicates():
    assert len(ssnorm.__all__) == len(set(ssnorm.__all__))
    missing = [name for name in ssnorm.__all__ if not hasattr(ssnorm, name)]
    assert missing == []
    namespace = {}
    exec("from ssnorm import *", namespace)
    assert set(ssnorm.__all__) <= set(namespace)


def test_sources_parse_at_the_declared_python_floor():
    # Syntax only: library APIs newer than the floor are not caught here.
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=3\.(\d+)"', text, re.M)
    assert floor is not None
    sources = sorted((root / "src" / "ssnorm").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, int(floor.group(1))))


def test_only_errors_checks_numbers():
    # check_integer and check_real in errors.py are the one rule for what
    # counts as an integer or a real number, so no other module reads the
    # numbers ABCs.
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssnorm"
    importers = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["errors.py"]


def test_only_errors_reads_dtype_kinds():
    # check_array in errors.py is the one rule for what counts as an array of
    # real numbers, so no other module reads a dtype's kind or converts an
    # argument to float64 itself.
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssnorm"
    readers = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "kind" and \
                    isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                readers.append(path.name)
            elif isinstance(node, ast.Call) and \
                    ast.unparse(node.func) in ("np.asarray", "np.array") and \
                    any(kw.arg == "dtype" and ast.unparse(kw.value) == "np.float64"
                        for kw in node.keywords):
                readers.append(path.name)
    assert sorted(set(readers)) == ["errors.py"]


@pytest.mark.parametrize("check,value,passes", [
    (check_integer, 3, True), (check_integer, np.int64(3), True),
    (check_integer, np.uint8(3), True), (check_integer, True, False),
    (check_integer, np.bool_(True), False), (check_integer, 3.0, False),
    (check_integer, np.float64(3.0), False), (check_integer, "3", False),
    (check_integer, None, False),
    (check_real, 0.5, True), (check_real, 3, True), (check_real, np.float64(0.5), True),
    (check_real, np.float32(0.5), True), (check_real, np.int64(2), True),
    (check_real, True, False), (check_real, np.bool_(False), False),
    (check_real, float("nan"), False), (check_real, -float("inf"), False),
    (check_real, np.float64("nan"), False), (check_real, "0.5", False),
    (check_real, None, False), (check_real, 1 + 0j, False),
    pytest.param(check_real, 10**400, False, id="check_real-int-beyond-float64"),
])
def test_scalar_rules_take_the_same_values_by_either_path(check, value, passes):
    # A plain int or float is tested before the numbers ABCs; every other
    # value still goes through them.
    if passes:
        assert check("v", value) is value
    else:
        with pytest.raises(InvalidInputError, match="v must be"):
            check("v", value)


def test_array_rule_converts_only_what_is_not_float64():
    a = np.array([1.0, 2.0])
    assert check_array("a", a) is a
    for same in (a.astype(np.float32), a.astype(np.int8), a.tolist(), a.astype(">f8")):
        b = check_array("a", same)
        assert b.dtype == np.float64 and b.dtype.isnative and np.array_equal(b, a)
    assert check_array("a", 2.5).shape == ()
    # numpy stores a list with an int beyond int64 as objects.
    assert check_array("a", [10**20, 0, 2.5]).tolist() == [1e20, 0.0, 2.5]
    assert sparsemax([10**20, 0]).tolist() == [1.0, 0.0]
    # finite=False leaves the entries unread.
    assert np.isnan(check_array("a", [np.nan, 1.0], finite=False)[0])


@pytest.mark.parametrize("shape", [(3,), (1, 3), ()])
def test_array_rule_tells_overflowing_sums_from_non_finite_entries(shape):
    # The 1-D read sums the entries first; a sum that overflows must not
    # read as a non-finite entry.
    big = np.resize([1e308, 1e308, 0.0], shape)
    assert check_array("a", big) is big
    for bad in (np.nan, np.inf, -np.inf):
        worse = big.copy()
        worse.flat[-1] = bad
        with pytest.raises(InvalidInputError, match="a must be finite"):
            check_array("a", worse)
    if shape == (3,):
        assert sparsemax(big).tolist() == [0.5, 0.5, 0.0]


OMEGA = ("IN", "BN", "LN")


def _frozen_bn(c):
    """Layer parameters whose gates both froze on BN, as folding needs."""
    params = SsnParams.init(c, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.gate.frozen_mean = params.gate.frozen_var = True
    return params


def _backward(g):
    x = np.arange(32.0).reshape(2, 4, 2, 2) % 5
    grads = ssn_backward(ssn_forward(x, SsnParams.init(4, 3), 0.3, OMEGA)[1], g)
    return np.concatenate([grads.x.ravel(), grads.gamma, grads.beta, grads.z_mean,
                           grads.z_var])


def _update(name, value):
    params = SsnParams.init(4, 3)
    moments = {"batch_mean": np.arange(4.0), "batch_var": np.ones(4), name: value}
    update_running_stats(params, moments["batch_mean"], moments["batch_var"])
    return np.concatenate([params.bn_running_mean, params.bn_running_var])


def _fold(name, value):
    conv = {"weight": np.arange(12.0).reshape(4, 3, 1, 1), "bias": np.arange(4.0),
            name: value}
    return np.concatenate([a.ravel() for a in fold_bn_into_affine(
        conv["weight"], conv["bias"], _frozen_bn(4), OMEGA)])


_TOY = ToyModelConfig(layer_widths=[4], ssn_layer_count=1, batch_size=4, channels=2,
                      height=2, width=2, n_classes=2)


def _train(x):
    log = train(_TOY, OptimizerConfig(epochs=1), (x, np.arange(8) % 2))
    return log.to_csv()


# Every public entry point that takes an array of real numbers: the name its
# errors give the argument, an integer-valued float64 value of it, and a
# call on that argument whose result compares bitwise.
ARRAY_ARGUMENTS = {
    "softmax": ("logits", np.array([2.0, 1.0, 0.0]), softmax),
    "sparsemax": ("logits", np.array([2.0, 1.0, 0.0]), sparsemax),
    "sparsestmax": ("logits", np.array([2.0, 1.0, 0.0]),
                    lambda z: sparsestmax(z, 0.3).p),
    "sparsestmax_vjp": ("upstream vector", np.array([1.0, -2.0, 3.0]),
                        lambda g: sparsestmax_vjp(sparsestmax([1.0, 0.9, 0.8], 0.3), g)),
    "is_smooth_point": ("logits", np.array([2.0, 1.0, 0.0]),
                        lambda z: is_smooth_point(z, 0.3)),
    "ssn_forward": ("activation tensor", np.arange(32.0).reshape(2, 4, 2, 2) % 7,
                    lambda x: ssn_forward(x, SsnParams.init(4, 3), 0.3, OMEGA)[0]),
    "ssn_backward": ("upstream tensor", np.arange(32.0).reshape(2, 4, 2, 2) % 3 - 1,
                     _backward),
    "update_running_stats batch_mean": ("batch_mean", np.array([1.0, 2.0, 3.0, 4.0]),
                                        lambda m: _update("batch_mean", m)),
    "update_running_stats batch_var": ("batch_var", np.array([1.0, 2.0, 3.0, 4.0]),
                                       lambda v: _update("batch_var", v)),
    "fold_bn_into_affine weight": ("conv weight", np.arange(12.0).reshape(4, 3, 1, 1) - 6,
                                   lambda w: _fold("weight", w)),
    "fold_bn_into_affine bias": ("conv bias", np.array([1.0, 0.0, -1.0, 2.0]),
                                 lambda b: _fold("bias", b)),
    "train": ("x", np.arange(64.0).reshape(8, 2, 2, 2) % 5 - 2, _train),
}

def _beside_big_ints(entry, shape):
    """A nested list of ``shape`` whose first entry is ``entry`` and whose
    others are an int beyond int64, so numpy stores it as objects."""
    a = np.full(shape, 10**20, dtype=object)
    a.flat[0] = entry
    return a.tolist()


# The dtype numpy gives each value that is not real numbers, and the value
# made in a given shape.
NOT_REAL = {
    "bool": ("bool", lambda shape: np.ones(shape, dtype=bool)),
    "complex128": ("complex128", lambda shape: np.ones(shape) + 1j),
    "<U1": ("<U1", lambda shape: np.full(shape, "1")),
    "object": ("object", lambda shape: np.full(shape, None)),
    "object/bool": ("object", lambda shape: _beside_big_ints(True, shape)),
    "object/str": ("object", lambda shape: _beside_big_ints("1", shape)),
    "object/complex": ("object", lambda shape: _beside_big_ints(1j, shape)),
}


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_every_array_argument_takes_real_numbers_only(entry, kind):
    # bool logits were read as 0 and 1, string logits and x were parsed, and
    # a complex upstream vector lost its imaginary part with a warning.
    name, value, call = ARRAY_ARGUMENTS[entry]
    dtype, make = NOT_REAL[kind]
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{name} must be real numbers, got dtype {dtype}")):
        call(make(value.shape))


@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_every_array_argument_rejects_ragged_lists(entry):
    # numpy's bare ValueError ("inhomogeneous shape") named no argument.
    name, value, call = ARRAY_ARGUMENTS[entry]
    ragged = value.tolist()
    ragged[0] = [ragged[0], ragged[0]]
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{name} must be a regular array, got a ragged sequence")):
        call(ragged)


@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_every_array_argument_reads_integers_and_lists_as_floats(entry):
    _, value, call = ARRAY_ARGUMENTS[entry]
    expected = call(value)
    # Python ints and floats stored as objects, as numpy stores a list with an
    # int beyond int64, are read as the numbers they are.
    for same in (value.astype(np.int64), value.astype(np.int32), value.tolist(),
                 value.astype(object), value.astype(np.int64).astype(object)):
        got = call(same)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array_equal(got, expected) and \
                np.asarray(got).dtype == np.asarray(expected).dtype


@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_every_array_argument_must_be_finite(entry):
    name, value, call = ARRAY_ARGUMENTS[entry]
    for bad in (np.nan, np.inf):
        value = value.copy()
        value.flat[1] = bad
        with pytest.raises(InvalidInputError, match=re.escape(f"{name} must be finite")):
            call(value)
    # An int beyond float64 has no finite float value.
    huge = value.astype(object)
    huge.flat[1] = 10**400
    with pytest.raises(InvalidInputError, match=re.escape(f"{name} must be finite")):
        call(huge.tolist())

def test_only_full_allocates_full_size_outputs():
    # _full in layer.py is the one rule for a full-size output's memory, so
    # no other function of the layer allocates an array of x's shape or of
    # its grouped view.
    path = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssnorm" / "layer.py"
    allocators = []
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.args and \
                    ast.unparse(node.func) in ("np.empty", "np.zeros", "np.ones", "np.full") \
                    and ast.unparse(node.args[0]) in ("view", "x.shape"):
                allocators.append(func.name)
    assert allocators == ["_full"]
