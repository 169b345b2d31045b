"""The command line: ``python -m soupadapter`` and the ``soupadapter``
script both enter here.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and then
starts a helper thread per core that spins after every product. So this
module imports no numpy, and it pins the count to one before it imports
the CLI: the process then runs one OS thread, which the forked workers
of synth, soup and eval need (see workers), and spends no CPU time on
spinning helpers. The pin replaces any value the caller set; cli.main
pins BLAS for every subcommand anyway, so the bytes written are the
same either way.
"""

import os


def entry():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import entry as run_cli
    run_cli()


if __name__ == "__main__":
    entry()
