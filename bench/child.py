"""One benchmark repetition, run as a fresh single process.

Usage: python3 bench/child.py PLAN.json

The plan names the package source directory, the CLI commands (argv lists
for `wildsim.cli.main`), whether to trace, and where to write the result.
Set-up (import of wildsim plus building the kernel and the initial datum)
is timed from a cold interpreter, as every CLI call pays it.  Each command
then runs in-process and is timed on its own.

Host speed on a shared machine drifts by tens of percent within seconds, so
a SIGALRM handler times a fixed pure-Python loop every PROBE_INTERVAL_S
while the repetition runs.  The probes' own time is subtracted from every
phase, and bench/run.py scales each phase by the median probe of that
phase.
"""

import json
import resource
import signal
import sys
from time import perf_counter

PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 10_000


class HostSpeedProbe:
    """Timed runs of a fixed loop, taken from a SIGALRM handler."""

    def __init__(self, on_sample=None):
        self.samples = []          # (start, duration)
        self.on_sample = on_sample

    def _probe(self, signum, frame):
        start = perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += (i % 7) * 0.5
        duration = perf_counter() - start
        self.samples.append((start, duration))
        if self.on_sample is not None:
            self.on_sample(duration)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def phase(self, begin: float, end: float) -> dict:
        """Time in [begin, end) net of probes, with the probes taken in it."""
        inside = [d for s, d in self.samples if begin <= s < end]
        return {"net_s": end - begin - sum(inside), "probes_s": inside}


def main(plan_path: str) -> int:
    with open(plan_path) as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])

    probe = HostSpeedProbe()
    probe.start()
    start = perf_counter()
    import wildsim.cli
    from wildsim.initial import make_initial_datum
    from wildsim.kernel import make_kernel

    make_kernel(plan["kernel"])
    make_initial_datum(plan["mu0"])
    setup_end = perf_counter()

    recorder = None
    if plan["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        probe.on_sample = recorder.exclude

    commands = []
    for argv in plan["commands"]:
        begin = perf_counter()
        code = wildsim.cli.main(argv)
        commands.append({"argv": argv, "exit_code": code, "begin": begin,
                         "end": perf_counter()})
    probe.stop()

    for command in commands:
        command.update(probe.phase(command.pop("begin"), command.pop("end")))
    result = {
        "package_file": wildsim.__file__,
        "setup": probe.phase(start, setup_end),
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans() if recorder is not None else None,
    }
    with open(plan["result"], "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
