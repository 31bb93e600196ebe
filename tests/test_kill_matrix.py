"""Every planted defect against every shipped config (ROADMAP item 33).

Each row of ``test_planted_defects.DEFECTS``, and each survivor below, is
planted by rebinding its module attribute and run in-process against all
nine shipped configs.  A row declares its exact kill set: the configs that
exit 1 with a FAIL row.  A plant that makes a config exit 2, exit 1 with no
FAIL row or raise is recorded as that outcome, not as a kill.  The test
asserts the measured outcomes equal the declared ones, so a lost kill fails,
and so does a new one until the table names it.  A survivor has an empty
kill set and names the item that should catch it.

Run as a script (``PYTHONPATH=src python tests/test_kill_matrix.py``), it
prints "k of n defects killed", the kills per config, each survivor with
its item, and any outcome that is neither a pass nor a kill.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from test_planted_defects import CONFIGS, DEFECTS

from annulab import bergman, hardy
from annulab.cli import main

SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))


def _one_column_early(find):
    """The ``n0`` rule ``find`` with every column it returns one lower."""
    def early(*args):
        n0 = find(*args)
        return n0 - 1 if isinstance(n0, int) else n0
    return early


#: plants no shipped config catches: module, attribute, mutation, and the
#: ROADMAP item whose check should catch it
SURVIVORS = {
    "bergman-toeplitz-times-1.1": (
        bergman, "build_bergman_toeplitz",
        lambda build: lambda *a: build(*a) * 1.1, "item 32",
    ),
    "toeplitz-hardy-times-1+1e-11": (
        hardy, "build_toeplitz_hardy",
        lambda build: lambda *a: build(*a) * (1 + 1e-11), "item 20",
    ),
    "toeplitz-hardy-times-1+1e-12": (
        hardy, "build_toeplitz_hardy",
        lambda build: lambda *a: build(*a) * (1 + 1e-12), "item 20",
    ),
    "hankel-annulus-times-1+1e-12": (
        hardy, "build_hankel_annulus",
        lambda build: lambda *a: build(*a) * (1 + 1e-12), "item 20",
    ),
    "bergman-norm-const-next-degree": (
        bergman, "bergman_norm_const",
        lambda norm: lambda n, R: norm(n + 1, R), "item 32",
    ),
    "bergman-norm-const-times-1.01": (
        bergman, "bergman_norm_const",
        lambda norm: lambda n, R: norm(n, R) * 1.01, "item 32",
    ),
    "hardy-n0-one-column-early": (hardy, "find_n0_hardy", _one_column_early, "item 23"),
    "bergman-n0-one-column-early": (bergman, "find_n0_bergman", _one_column_early, "item 23"),
}

#: per row: the configs it kills, as measured
KILLS = {
    "toeplitz-hardy-times-1.001": {"semicommutator", "toeplitz-build"},
    "swapped-basis-weights": {"toeplitz-build"},
    "negated-hankel-annulus": {"toeplitz-build"},
    "hankel-annulus-times-1.001": {"semicommutator", "toeplitz-build"},
    "disc-hankel-one-offset-off": {"identities", "semicommutator"},
    "c0-hardy-samples-one-degree-on": {"gram", "toeplitz-build"},
    "c0-complement-samples-one-degree-on": {"gram", "toeplitz-build"},
    "roots-table-one-index-off-gram": {"gram", "identities", "toeplitz-build"},
    "roots-table-one-index-off-toeplitz-build": {"gram", "identities", "toeplitz-build"},
    "radial-weights-without-jacobian": {"mellin"},
    "band-entries-one-row-off": {"semicommutator", "toeplitz-build", "zero-product-hardy"},
    "band-adjoint-one-diagonal-off": {"semicommutator"},
    "symbol-products-one-degree-off": {"semicommutator"},
    "symbol-products-one-degree-up": {"semicommutator"},
    "sign-certificate-for-every-profile": {"mellin"},
    "inner-pullback-unflipped": {"identities"},
    "inner-pullback-outer-table": {"identities"},
    **{name: set() for name in SURVIVORS},
}

PLANTS = {name: row[1:] for name, row in DEFECTS.items()}
PLANTS |= {name: row[:3] for name, row in SURVIVORS.items()}


def _outcome(config, out) -> str:
    """``pass``, ``kill`` (exit 1 with a FAIL row), ``exit 1 with no FAIL
    row``, ``exit 2`` or the name of the exception the run raised."""
    experiment = json.loads((CONFIGS / f"{config}.json").read_text())["experiment"]
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = main([experiment, "--config", str(CONFIGS / f"{config}.json"),
                         "--out", str(out)])
    except Exception as exc:  # a plant may break a run outright
        return type(exc).__name__
    fails = any(line.startswith("FAIL ") for line in printed.getvalue().splitlines())
    return {0: "pass", 1: "kill" if fails else "exit 1 with no FAIL row"}.get(code, f"exit {code}")


def outcomes(name) -> dict[str, str]:
    """The outcome of every shipped config whose run the plant ``name``
    does not pass."""
    module, attr, mutate = PLANTS[name]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(module, attr, mutate(getattr(module, attr)))
        runs = {config: _outcome(config, Path(tmp) / config) for config in SHIPPED}
    return {config: got for config, got in runs.items() if got != "pass"}


@pytest.mark.parametrize("name", PLANTS)
def test_plant_kills_exactly_its_declared_configs(name):
    assert outcomes(name) == dict.fromkeys(KILLS[name], "kill")


if __name__ == "__main__":
    measured = {name: outcomes(name) for name in PLANTS}
    killed = [name for name, got in measured.items() if "kill" in got.values()]
    print(f"{len(killed)} of {len(measured)} defects killed")
    print("kills per config:", ", ".join(
        f"{config} {sum(got.get(config) == 'kill' for got in measured.values())}"
        for config in SHIPPED))
    for name, got in measured.items():
        if name not in killed:
            print(f"survivor {name}: {SURVIVORS[name][3] if name in SURVIVORS else 'no item'}")
        for config, outcome in got.items():
            if outcome != "kill":
                print(f"other outcome {name} on {config}: {outcome}")
