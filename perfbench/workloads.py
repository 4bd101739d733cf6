"""The benchmark's workloads: specgap command lines, in the order one pass runs them.

No command passes --workers. The seed goes to every seeded command.
"""

HARMONIC = ["--set", "kind=harmonic", "--set", "interval=-12,12", "--set", "n=100000"]
CONE64 = ["--set", "kind=coneModel", "--set", "params=64", "--set", "interval=0,64", "--set", "n=65536"]


def commands(workload, seed):
    """The argv lists (without --out) that one pass of `workload` runs."""
    seed = str(seed)
    if workload == "sweep2d":
        return [["vdberg", "--set", "D=8,16"], ["gjCompare"]]
    if workload == "suite1d":
        return [
            ["verifyThm1"],
            ["rearrangeCheck", "--seed", seed],
            ["domainSweep"],
            ["constants"],
            ["constants", "--set", "budget=200000", "--seed", seed],
        ]
    if workload == "fine1d":
        # The harmonic eig1d exits 1 at this size ("inverse iteration failed
        # to converge"). It is a known defect and stays in, counted as failed.
        return [["bound", *HARMONIC], ["eig1d", *HARMONIC], ["bound", *CONE64], ["eig1d", *CONE64]]
    raise KeyError(workload)


NAMES = ("sweep2d", "suite1d", "fine1d")


def measured_env(workload):
    """Environment added to the untraced passes of --trace 0 runs.

    sweep2d runs vdberg serially there. At the CLI default (one worker per
    core, each with a multi-threaded BLAS) the 2-core reference machine
    took 43 to 102 s for the same vdberg call from run to run, a spread
    wider than any regression bound can absorb, while the serial call
    stays within a few percent. The untraced pass of a --trace 1 run keeps
    the CLI default, so the pool's cost still shows there: compare
    cli.op.vdberg.s with pipeline.vdberg_sweep.s. The variable is ignored
    once the pool is gone.
    """
    return {"SPECGAP_WORKERS": "1"} if workload == "sweep2d" else {}
