"""Optional replication harness for user-supplied survey microdata.

The headline numbers depend on licensed PSRC/NHTS microdata that is not
shipped with this repository.  Point the environment variables below at
directories containing ``households.csv``, ``persons.csv``, and
``days.csv`` for each survey (columns per the shipped harmonization
crosswalk, which is editable data) and this module will run the full
imputation and check the published tolerance bands:

    SURVEYFUSE_PSRC2017_DIR   source survey (mostly missing targets)
    SURVEYFUSE_NHTS2017_DIR   ground-truth survey

Skipped entirely when the variables are unset.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from surveyfuse import (
    impute,
    load_default_spec,
    subsample_compare,
)
from surveyfuse.dataset import household_sums
from surveyfuse.ingest import assemble, load_tables
from surveyfuse.matching import augment_candidate

PSRC_DIR = os.environ.get("SURVEYFUSE_PSRC2017_DIR")
NHTS_DIR = os.environ.get("SURVEYFUSE_NHTS2017_DIR")

pytestmark = pytest.mark.skipif(
    not (PSRC_DIR and NHTS_DIR),
    reason="set SURVEYFUSE_PSRC2017_DIR and SURVEYFUSE_NHTS2017_DIR to run replication",
)


def _ingest(directory: str, survey_id: str, year: int):
    spec = load_default_spec()
    d = Path(directory)
    raw = load_tables(
        d / "households.csv", d / "persons.csv", d / "days.csv", survey_id, spec
    )
    return assemble(raw, spec, year)


def test_imputation_quality_bands():
    source = _ingest(PSRC_DIR, "psrc2017", 2017)
    ground_truth = _ingest(NHTS_DIR, "nhts2017", 2017)

    pool = augment_candidate(source, ground_truth.labeled())
    result = impute(source, pool)

    labeled = ground_truth.labeled()
    truth_totals = household_sums(labeled.households, labeled.y, labeled.household_code)
    n = truth_totals[0].size
    report = subsample_compare(
        (result.household_ids, result.household_y), truth_totals, n=n, seed=0
    )
    final = report.per_cutoff[-1]
    assert final.mse_mean == pytest.approx(0.65, abs=0.2)
    assert final.mean_of_means == pytest.approx(1.0, abs=0.3)
    assert final.mean_of_stddevs == pytest.approx(3.5, abs=0.7)
