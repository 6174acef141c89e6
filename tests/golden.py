"""What the cascade engine computes at pinned seeds, frozen.

`tests/data/engine_golden.json` freezes it; `test_engine_golden_values`
checks the engine against it.  Three modes:

    PYTHONPATH=src python tests/golden.py           # rewrite the whole file
    PYTHONPATH=src python tests/golden.py --add     # add only missing keys
    PYTHONPATH=src python tests/golden.py --drift   # print each entry's drift

The first writes the digests and values of the checked-out code with its
git commit, in "commit"; a change that is meant to move any of them must
run it and say so in CHANGES.md.  --add computes the same, but writes only
the keys the file lacks, leaving every existing entry as it is, and names
the commit that wrote each added key in "commits" (a key without an entry
there was written by "commit").  --drift writes nothing: it prints, per
entry, whether its digest still matches, or how far its value moved
against VALUE_TOL, and exits 1 if any entry fails or the key sets differ.

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

import argparse
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
    images = replay(record, sixpoint_datum().sampler(rng, record.n_leaves), images=True)
    out = {"replay/sixpoint/roots": images[0], "replay/sixpoint/mirrored": images[1],
           "replay/sixpoint/images": images}
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


def add_missing(frozen: dict, computed: dict, commit: str) -> list:
    """Add to frozen, in place, each computed entry it lacks, and name
    commit as its writer; return the added keys as section/key."""
    added = []
    for section in ("digests", "values"):
        for key, value in computed[section].items():
            if key not in frozen[section]:
                frozen[section][key] = value
                frozen.setdefault("commits", {})[f"{section}/{key}"] = commit
                added.append(f"{section}/{key}")
    return added


def drift(frozen: dict, computed: dict) -> list:
    """(section/key, failed, note) per entry of either side; a value fails
    as test_engine_golden_values fails it, |a - b| > VALUE_TOL (1 + |b|)."""
    rows = []
    for section in ("digests", "values"):
        old, new = frozen[section], computed[section]
        for key in sorted(old.keys() | new.keys()):
            name = f"{section}/{key}"
            if key not in new or key not in old:
                rows.append((name, True, "only in the file" if key in old else "not in the file"))
            elif section == "digests":
                rows.append((name, old[key] != new[key],
                             "same" if old[key] == new[key] else "differs"))
            else:
                a, b = np.asarray(new[key], float), np.asarray(old[key], float)
                diff = np.abs(a - b)
                failed = bool(np.any(diff > VALUE_TOL * (1.0 + np.abs(b))))
                rows.append((name, failed, f"max |diff| {diff.max(initial=0.0):.2e}"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--add", action="store_true", help="write only the keys the file lacks")
    mode.add_argument("--drift", action="store_true",
                      help="print each entry's drift from the checked-out engine; write nothing")
    args = parser.parse_args(argv)
    computed = {"digests": engine_digests(), "values": engine_values()}
    if args.drift:
        rows = drift(json.loads(GOLDEN.read_text()), computed)
        for name, failed, note in rows:
            print(f"{'FAIL' if failed else 'ok  '}  {name}: {note}")
        return int(any(failed for _, failed, _ in rows))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True, cwd=Path(__file__).parent).stdout.strip()
    if args.add:
        frozen = json.loads(GOLDEN.read_text())
        added = add_missing(frozen, computed, commit)
        if added:
            GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
        print(f"added {len(added)} keys to {GOLDEN} at {commit}", *added, sep="\n  ")
        return 0
    GOLDEN.write_text(json.dumps({"commit": commit, **computed}, indent=1) + "\n")
    print(f"wrote {GOLDEN} at {commit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
