import io

import numpy as np
import pytest

from surveyfuse import EncodedDataset, FeatureDictionary
from surveyfuse.dataset import household_index, pack_rows


@pytest.fixture
def pair_dictionary():
    """Two binary features -> d = 4."""
    return FeatureDictionary(features=("A", "B"), categories=(("c", "d"), ("i", "j")))


@pytest.fixture
def single_dictionary():
    """One binary feature -> d = 2; vectors [1,0], [0,1], [0,0]."""
    return FeatureDictionary(features=("F",), categories=(("a", "b"),))


def make_dataset(dictionary, x, y, household_ids=None, survey_id="test", year=2017):
    x = np.asarray(x, dtype=np.uint8)
    if household_ids is None:
        household_ids = [f"h{i}" for i in range(x.shape[0])]
    households, household_code = household_index(np.array(household_ids, dtype=np.str_))
    return EncodedDataset(
        dictionary=dictionary,
        survey_id=survey_id,
        year=year,
        households=households,
        household_code=household_code,
        words=pack_rows(x),
        y=np.asarray(y, dtype=np.float64),
    )


@pytest.fixture
def make_ds():
    return make_dataset


def random_one_hot(rng, dictionary, n, missing_rate=0.1):
    """Random valid one-hot matrix for the dictionary, with missing groups."""
    x = np.zeros((n, dictionary.dimension), dtype=np.uint8)
    for sl, cats in zip(dictionary.group_slices(), dictionary.categories):
        idx = rng.integers(0, len(cats), size=n)
        present = rng.random(n) >= missing_rate
        rows = np.flatnonzero(present)
        x[rows, sl.start + idx[rows]] = 1
    return x


def npy_claiming(blob: bytes, rows: int, descr: str | None = None) -> bytes:
    """An ``.npy`` member's data under a header that claims ``rows`` rows
    (and, given ``descr``, that dtype)."""
    fh = io.BytesIO(blob)
    np.lib.format.read_magic(fh)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    head = io.BytesIO()
    fields = {"descr": descr or np.lib.format.dtype_to_descr(dtype),
              "fortran_order": fortran_order, "shape": (rows, *shape[1:])}
    np.lib.format.write_array_header_1_0(head, fields)
    return head.getvalue() + blob[fh.tell():]
