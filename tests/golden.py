"""What the cascade engine computes at pinned seeds, frozen.

`tests/data/engine_golden.json` freezes it; `test_engine_golden_values`
checks the engine against it.  A change that is meant to move any of these
values must regenerate the file and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden.py

which writes the values of the checked-out code, with its git commit.

Two kinds of entry:
  digests  sha256 of outputs that only IEEE arithmetic, the random streams
           and the kernel's angle table (libm cos and sin, which numpy
           calls as they are) set: records, angle lookups, initial-law
           draws;
  values   outputs that pass through tan (`kernel.cos_sin`, `weight_sums`),
           which numpy runs as SIMD code on an AVX-512 host and as libm
           elsewhere, up to an ulp apart: replays, weight reductions and
           conditional transforms, compared to VALUE_TOL.  A tan off by
           one ulp in every call moves the replays and weight reductions
           by at most 3.1e-15 (400 cascades at t = 3).
"""

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np

from wildsim.cli import default_xi_grid
from wildsim.initial import _discrete_sampler, sixpoint_datum
from wildsim.kernel import PRESETS, make_kernel
from wildsim.sampler import (germination_record, replay, rng_stream, sorted_sizes,
                             transform_sums, weight_sums)

GOLDEN = Path(__file__).parent / "data" / "engine_golden.json"
RECORD_FIELDS = ("phis", "thetas", "left", "right", "bounds", "roots")
VALUE_TOL = 1e-13  # absolute and relative, on values of order 1


def digest(array) -> str:
    """sha256 over an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def engine_digests() -> dict:
    xabs = make_kernel("xabs")
    out = {}
    for t, seed in ((1.0, 11), (4.0, 12)):
        for azimuths in (True, False):
            rng = rng_stream(seed)
            nus, _ = sorted_sizes(t, rng, 300)
            record = germination_record(nus, xabs, rng, azimuths=azimuths)
            for name in RECORD_FIELDS:
                value = getattr(record, name)
                out[f"record/t={t:g}/azimuths={azimuths}/{name}"] = (
                    None if value is None else digest(value))
    for name in PRESETS:
        u = rng_stream(41).random(100_000)
        out[f"inverse_beta_cdf/{name}"] = digest(make_kernel(name).inverse_beta_cdf(u))
    points = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.5], [0.3, 0.3, -1.0], [0.0, 0.0, 0.0]])
    masses = np.array([0.1, 0.2, 0.3, 0.4])
    out["discrete_sampler/unequal"] = digest(_discrete_sampler(rng_stream(51), 5000, points, masses))
    out["discrete_sampler/equal"] = digest(
        _discrete_sampler(rng_stream(52), 5000, points, np.full(4, 0.25)))
    return out


def engine_values() -> dict:
    """Replays and weight reductions of 40 cascades at t = 3, and the
    `sixpoint` conditional transforms of 40 cascades at t = 1 and 3 on the
    default grid, as lists."""
    xabs = make_kernel("xabs")
    rng = rng_stream(21)
    nus, _ = sorted_sizes(3.0, rng, 40)
    record = germination_record(nus, xabs, rng)
    roots, mirrored = replay(record, sixpoint_datum().sampler(rng, record.n_leaves), mirror=True)
    out = {"replay/sixpoint/roots": roots, "replay/sixpoint/mirrored": mirrored}
    for label, kwargs in (("all", {"a_star": 0.25}), ("W", {"s_powers": ()})):
        rng = rng_stream(31)
        nus, _ = sorted_sizes(3.0, rng, 40)
        for key, value in weight_sums(nus, rng, kernel=xabs, **kwargs).items():
            out[f"weight_sums/{label}/{key}"] = value
    for t, seed in ((1.0, 61), (3.0, 62)):
        rng = rng_stream(seed)
        nus, _ = sorted_sizes(t, rng, 40)
        sums = transform_sums(nus, rng, mu0=sixpoint_datum(), kernel=xabs, xi_grid=default_xi_grid())
        for key, value in sums.items():
            out[f"transform_sums/sixpoint/t={t:g}/{key}"] = value
    return {key: np.asarray(value, float).tolist() for key, value in out.items()}


if __name__ == "__main__":
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True, cwd=Path(__file__).parent).stdout.strip()
    payload = {"commit": commit, "digests": engine_digests(), "values": engine_values()}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN} at {commit}")
