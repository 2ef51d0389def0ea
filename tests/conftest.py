import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from extractbench.datasets import DatasetSpec, generate, split
from extractbench.network import Network, TrainConfig, train
from extractbench.tensor import openblas_threads
from extractbench.zoo import ArchitectureSpec, build_model, builtin_spec


# what a message naming an unknown architecture or dataset id appends: every
# id of the registry, sorted, as JSON writes them
ARCH_CHOICES = (' (one of ["mini-dense-3", "mini-dense-4", "mini-gelu-4", '
                '"mini-gelu-6", "mini-mlp-1", "mini-mlp-2", "mini-mlp-3", '
                '"mini-pyramid-4", "mini-pyramid-5", "mini-resnet-4", '
                '"mini-resnet-6", "mini-student-cnn", "mini-vgg-4", '
                '"mini-vgg-6"])')
DATASET_CHOICES = (' (one of ["blobs-10c-mid", "blobs-2c-easy", '
                   '"blobs-4c-easy", "blobs-4c-hard", "blobs-4c-mid", '
                   '"blobs-5c-easy"])')


def make_blobs(classes=4, per_class=200, shape=(6, 6, 1), overlap=0.0, seed=0):
    return generate(DatasetSpec(f"t{classes}c", classes, per_class, shape,
                                overlap, seed))


def network_of(nodes, input_shape, seed=0) -> Network:
    """A model of a loose node list, built as every model is: from the spec
    that holds the nodes (whose checks of order and shapes run first). The
    class count is 1: a Network does not read it, only build_model does."""
    spec = ArchitectureSpec("test-net", "test", tuple(nodes),
                            tuple(input_shape), 1)
    return Network(spec, seed)


def trained_model(arch_id, dataset, epochs=12, seed=0, lr=0.01):
    spec = builtin_spec(arch_id, dataset.spec.input_shape, dataset.class_count)
    model = build_model(spec, seed=seed)
    train(model, dataset.inputs, dataset.labels,
          TrainConfig(epochs=epochs, seed=seed, learning_rate=lr))
    return model


def rows(data):
    """Each input row's bytes: generated rows are distinct, so they name a
    row across a dataset's splits and subsets."""
    return [r.tobytes() for r in data.inputs.reshape(len(data), -1)]


def relabelling(source, sub):
    """The (source label, sub label) pairs of the rows of `sub`, a split or
    re-indexed class subset of `source`."""
    label = dict(zip(rows(source), source.labels.tolist()))
    return set(zip((label[r] for r in rows(sub)), sub.labels.tolist()))


def same_bits(a, b):
    """Equal values and equal signs, so +0.0 and -0.0 count as different."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.fixture()
def blas_threads():
    """(the loaded OpenBLAS's thread calls, a count above 1 it is set to
    for the test: the host's count, or 2 on a one-CPU host); skips where
    no OpenBLAS thread setter is found, and restores the count after."""
    blas = openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter in this process")
    before = blas.get()
    many = max(before, 2)
    blas.set(many)
    yield blas, many
    blas.set(before)


@pytest.fixture(scope="session")
def blobs4():
    return make_blobs(classes=4, per_class=200, overlap=0.3, seed=11)


@pytest.fixture(scope="session")
def blobs4_split(blobs4):
    return split(blobs4, 0.7, seed=5)


# ---------------------------------------------------------------------------
# golden data: stored results that later versions must reproduce
# ---------------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# Off the platform a golden entry was made on, floats may differ in the last
# bits (another BLAS kernel, numpy SIMD path or version), so they are held to
# this relative tolerance there; ints, strings and the keys stay exact.
GOLDEN_RTOL = 1e-9


def pytest_addoption(parser):
    parser.addoption(
        "--write-golden", action="store_true",
        help="store the results of the golden tests that run as their new "
             "golden data (for a change that alters results on purpose, "
             "which must say so)")


def platform_key() -> dict:
    """The benchmark's platform key: what must match for float results to
    be bit-identical to stored ones."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "machine.py"
    spec = importlib.util.spec_from_file_location("_bench_machine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.platform_key()


@pytest.fixture(scope="session")
def platform():
    return platform_key()


def _tolerant_mismatch(stored, got, path="") -> str | None:
    if isinstance(stored, dict) and isinstance(got, dict):
        if list(stored) != list(got):
            return f"{path or 'top'}: keys {list(got)} != stored {list(stored)}"
        for key in stored:
            problem = _tolerant_mismatch(stored[key], got[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(stored, list) and isinstance(got, list):
        if len(stored) != len(got):
            return f"{path}: {len(got)} items != stored {len(stored)}"
        for i, (s, g) in enumerate(zip(stored, got)):
            problem = _tolerant_mismatch(s, g, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if isinstance(stored, float) and isinstance(got, float):
        if math.isclose(stored, got, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return None
    elif type(stored) is type(got) and stored == got:
        return None
    return f"{path}: {got!r} != stored {stored!r}"


@pytest.fixture()
def golden(request, platform, record_property):
    """`golden(file, name, value)` compares a JSON value with the entry
    `name` of ``tests/golden/<file>.json``: exactly (as canonical JSON text)
    when the entry was made on this platform, else within GOLDEN_RTOL. A
    `platform_value` (digests of float arrays, say) is compared only on the
    platform the entry was made on, exactly. Under ``--write-golden`` it
    stores the values instead and skips. The mode is recorded on the test
    and listed at the end of the run."""

    def check(file: str, name: str, value, platform_value=None) -> None:
        value = json.loads(json.dumps(value))  # tuples -> lists, as stored
        path = GOLDEN_DIR / f"{file}.json"
        stored = json.loads(path.read_text()) if path.is_file() else {}
        if request.config.getoption("--write-golden"):
            stored[name] = {"platform": platform, "value": value}
            if platform_value is not None:
                stored[name]["platform_value"] = platform_value
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(dict(sorted(stored.items())), indent=1)
                            + "\n")
            record_property("golden_mode", "written")
            pytest.skip(f"golden entry {file}:{name} written")
        assert name in stored, f"no golden entry {file}:{name}; see --write-golden"
        entry = stored[name]
        if entry["platform"] == platform:
            record_property("golden_mode", "exact")
            assert json.dumps(value) == json.dumps(entry["value"]), \
                f"{file}:{name} differs from its golden entry (exact mode)"
            assert json.dumps(platform_value) == json.dumps(
                entry.get("platform_value")), \
                f"{file}:{name} platform value differs from its golden entry"
        else:
            record_property("golden_mode", "tolerant")
            problem = _tolerant_mismatch(entry["value"], value)
            assert problem is None, \
                f"{file}:{name} differs from its golden entry (tolerant mode, " \
                f"made on {entry['platform']}): {problem}"

    return check


def pytest_terminal_summary(terminalreporter):
    modes = Counter(mode for reports in terminalreporter.stats.values()
                    for report in reports if getattr(report, "when", "") == "call"
                    for key, mode in getattr(report, "user_properties", ())
                    if key == "golden_mode")
    if modes:
        terminalreporter.write_line(
            "golden comparisons: "
            + ", ".join(f"{n} {mode}" for mode, n in sorted(modes.items()))
            + f" (exact: made on this platform; tolerant: floats within "
              f"rel {GOLDEN_RTOL})")
