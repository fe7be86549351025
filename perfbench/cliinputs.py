"""Input files for the `cli` workload, written through freesym.serialize.

Every file is read back and compared with what was written, so a broken
writer or reader shows up before any command runs.
"""

from __future__ import annotations

import os

import numpy as np

from freesym import serialize
from freesym.distributions import CumulantSpecSingle
from freesym.fixtures import fixture_set, permutation_rep

import classes
import cliwork
import oracle


def _convert_inputs(seed: int) -> dict:
    """The four order-8 scalar laws the convert commands read."""
    par = cliwork.params(seed)
    K = cliwork.CONVERT_ORDER
    even = [k for k in range(2, K + 1, 2)]
    return {
        "semicircle": CumulantSpecSingle(order=K, entries={"11": par["s"]}, selfadjoint=True),
        "poisson": CumulantSpecSingle(order=K, entries={"1" * k: par["lam"] for k in range(1, K + 1)},
                                      selfadjoint=True),
        # moment files: the convert command reads a spec's entries as moments
        "haar_moments": CumulantSpecSingle(
            order=K, entries={p: par["r"] ** k for k in even for p in oracle.patterns(k)
                              if p.count("1") * 2 == k}),
        "gaussian_moments": CumulantSpecSingle(
            order=K, entries={"1" * k: oracle.double_factorial(k - 1) * par["g"] ** (k // 2) for k in even},
            selfadjoint=True),
    }


def write(out_dir: str, seed: int, tracer) -> int:
    """Write every input file; returns the bytes written."""
    os.makedirs(out_dir, exist_ok=True)
    with tracer.span("fixtures.build"):
        fx = fixture_set()
    reps = {name: rep for name, (rep, _) in fx.reps.items()}
    reps["permutation_4"] = permutation_rep(4)
    rng = np.random.default_rng([seed, 3])
    specs = {f"spec_{kind.lower()}": classes.sample(recipe, rng)[0] for kind, _, recipe in classes.RECIPES}
    specs.update(_convert_inputs(seed))

    written = 0
    for name, rep in sorted(reps.items()):
        path = os.path.join(out_dir, name + ".json")
        with tracer.span("serialize.dump"):
            serialize.save_rep(rep, path)
        written += os.path.getsize(path)
    for name, spec in sorted(specs.items()):
        path = os.path.join(out_dir, name + ".json")
        with tracer.span("serialize.dump"):
            serialize.save_spec(spec, path)
        written += os.path.getsize(path)

    for name, rep in sorted(reps.items()):
        with tracer.span("serialize.load"):
            back = serialize.load_rep(os.path.join(out_dir, name + ".json"))
        if not np.array_equal(back.entries, rep.entries):
            raise ValueError(f"{name}.json does not read back as written")
    for name, spec in sorted(specs.items()):
        with tracer.span("serialize.load"):
            back = serialize.load_spec(os.path.join(out_dir, name + ".json"))
        if back.entries.keys() != spec.entries.keys() or any(
            not np.array_equal(back.entries[p], spec.entries[p]) for p in spec.entries
        ) or back.shift != spec.shift or back.selfadjoint != spec.selfadjoint:
            raise ValueError(f"{name}.json does not read back as written")
    return written
