"""Microseconds per cascade for each layer of the cascade engine.

Prints one row per layer, at t = 1, 3 and 5, as a markdown table:

    PYTHONPATH=src python tests/layer_timings.py [--repeats 15]

Each time draws CASCADES cascade sizes as `reduce_cascades` draws them
(sorted, from one stream) and cuts them into chunks as it cuts them
(`chunk_slices`), with the `xabs` kernel and the `sixpoint` datum.  A
layer's time is the best of --repeats passes over every chunk, divided by
CASCADES.  The inputs a layer reads but does not make (records, uniforms,
factors, leaf velocities) are built before its timer starts; the last four
rows time a whole chunk task, record included.  The empirical transform
task (`crosscheck`'s other side) runs with its control variates, whose
coefficients are fitted on the pilot before any timer starts, and so does
`conserve`'s velocity task, whose control means are closed forms.  The
last row times that side as `crosscheck` runs it at one time: the pilot
(`_control_coefficients`, CONTROL_PILOT cascades of its own, counted in the
time but not in CASCADES), then the task on every chunk.  Mean cascade
sizes are e, e^3 and e^5.  Nothing here is a gate: the numbers depend on
the host.
"""

import argparse
import time

import numpy as np

from wildsim.cli import default_xi_grid
from wildsim.diagnostics import (
    _control_coefficients,
    _exact_fourth_moment,
    _exact_sixth_moment,
    _velocity_moments_task,
    _wild_cf_task,
)
from wildsim.geometry import collision_frames
from wildsim.initial import sixpoint_datum
from wildsim.kernel import make_kernel, spectral_functionals
from wildsim.sampler import (
    _fold,
    chunk_slices,
    germination_record,
    leaf_frames,
    replay,
    rng_stream,
    sorted_sizes,
    transform_sums,
    weight_sums,
)

CASCADES = 4000
TIMES = (1.0, 3.0, 5.0)
SEED = 20260101


def layers(t_index, t, kernel, mu0):
    """(label, setup, run) per layer: setup() builds one input per chunk,
    run(input) is the timed call."""
    nus, _ = sorted_sizes(t, rng_stream(SEED, t_index), CASCADES)
    chunks = [nus[s] for s in chunk_slices(nus)]

    def fresh_streams():  # chunk c on stream (t_index, c), as `reduce_cascades` keys it
        return [(c, rng_stream(SEED, t_index, i)) for i, c in enumerate(chunks)]

    def records(azimuths=True):
        return [germination_record(c, kernel, rng, azimuths=azimuths)
                for c, rng in fresh_streams()]

    def uniforms():
        return [rng.random(int(c.sum()) - len(c)) for c, rng in fresh_streams()]

    def w_fold_inputs():  # W's one-row block and rows, as `weight_sums` folds them
        out = []
        for record in records(azimuths=False):
            shift = record.n_leaves - 1
            left, right, roots = (np.maximum(slots - shift, 0)
                                  for slots in (record.left, record.right, record.roots))
            cos_sq = 1.0 / (1.0 + np.tan(record.phis) ** 2)
            block = np.empty(len(cos_sq) + 1)
            block[0] = 1.0
            block[1:] = 0.5 * (cos_sq**2 + (1.0 - cos_sq) ** 2)
            out.append((block, left, right, list(record.levels())[::-1], roots))
        return out

    def replay_inputs():
        out = []
        for c, rng in fresh_streams():
            record = germination_record(c, kernel, rng)
            out.append((record, mu0.sampler(rng, record.n_leaves)))
        return out

    grid = default_xi_grid()
    fn = spectral_functionals(kernel)
    betas = _control_coefficients(mu0, kernel, fn, t, grid, SEED, 1)

    def controlled_side(streams):
        fitted = _control_coefficients(mu0, kernel, fn, t, grid, SEED, 1)
        for c, rng in streams:
            _wild_cf_task(c, rng, mu0, kernel, grid, betas=fitted)

    mu4 = _exact_fourth_moment(mu0, fn, t)
    mu6 = _exact_sixth_moment(mu0, fn, t)
    return [
        ("`germination_record` (angles, cuts, azimuths)", fresh_streams,
         lambda a: germination_record(a[0], kernel, a[1])),
        ("the same, `azimuths=False`", fresh_streams,
         lambda a: germination_record(a[0], kernel, a[1], azimuths=False)),
        ("`inverse_beta_cdf` alone", uniforms, kernel.inverse_beta_cdf),
        ("one-row `_fold` (W alone)", w_fold_inputs, lambda a: _fold(*a[:4]).take(a[4])),
        ("`collision_frames`", records, lambda r: collision_frames(r.phis, r.thetas)),
        ("`leaf_frames` (weights and rotations)", records, leaf_frames),
        ("`replay`", replay_inputs, lambda a: replay(*a)),
        ("`replay(..., images=True)`", replay_inputs, lambda a: replay(*a, images=True)),
        ("`weight_sums`, all statistics, record included", fresh_streams,
         lambda a: weight_sums(a[0], a[1], kernel=kernel)),
        ("`transform_sums`, default 20-point grid, all included", fresh_streams,
         lambda a: transform_sums(a[0], a[1], mu0=mu0, kernel=kernel, xi_grid=grid)),
        ("`_wild_cf_task` with controls, default grid, all but the pilot", fresh_streams,
         lambda a: _wild_cf_task(a[0], a[1], mu0, kernel, grid, betas=betas)),
        ("`_velocity_moments_task` with controls, record included", fresh_streams,
         lambda a: _velocity_moments_task(a[0], a[1], mu0, kernel, mu4=mu4, mu6=mu6)),
        ("controlled empirical transform, pilot included", lambda: [fresh_streams()],
         controlled_side),
    ]


def best_us_per_cascade(setup, run, repeats):
    best = float("inf")
    for _ in range(repeats):
        inputs = setup()
        started = time.perf_counter()
        for item in inputs:
            run(item)
        best = min(best, time.perf_counter() - started)
    return best / CASCADES * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15,
                        help="passes per layer and time; the best is reported")
    args = parser.parse_args(argv)
    kernel, mu0 = make_kernel("xabs"), sixpoint_datum()
    table = {}
    for t_index, t in enumerate(TIMES):
        for label, setup, run in layers(t_index, t, kernel, mu0):
            table.setdefault(label, []).append(
                best_us_per_cascade(setup, run, args.repeats))
    print(f"µs per cascade, {CASCADES} cascades per time, best of {args.repeats}")
    print("| layer | " + " | ".join(f"t = {t:g}" for t in TIMES) + " |")
    print("| --- |" + " --- |" * len(TIMES))
    for label, values in table.items():
        print(f"| {label} | " + " | ".join(f"{v:.3g}" for v in values) + " |")


if __name__ == "__main__":
    main()
