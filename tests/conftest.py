import os
import subprocess
import sys

import numpy as np

import onmf

# Directory holding the onmf package under test, as an absolute path, so a
# child process finds the same package whatever its working directory.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(onmf.__file__)))


def cli_env(extra=None):
    """Environment for a `python -m onmf.cli` child process."""
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd, env_extra=None):
    """Run `python -m onmf.cli` with `args` in `cwd`, capturing its output."""
    return subprocess.run([sys.executable, "-m", "onmf.cli", *args],
                          cwd=cwd, env=cli_env(env_extra),
                          capture_output=True, text=True)


def planted_labels(m, n, clusters, flip, seed):
    """BCC labels of a planted clustering with a `flip` share flipped."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, clusters, size=m)
    right = rng.integers(0, clusters, size=n)
    return (left[:, None] == right[None, :]) ^ (rng.random((m, n)) < flip)
