"""Seeded inputs. The same seed always gives the same inputs, and the
library only ever sees what these functions generate."""

from __future__ import annotations

import numpy as np

from oracle import KOCH_DIM

# distinct seeded inputs per op kind; op i uses input i mod INPUTS
INPUTS = 4

SEGMENT = {"kind": "polyline", "params": [0.0, 1.0], "points": [[0.0, 0.0], [1.0, 0.0]]}
KOCH6 = {"kind": "koch", "level": 6}


def _tri(rng, centre, left, right):
    return (centre - rng.uniform(*left), centre, centre + rng.uniform(*right))


def linear_params(rng, case: str) -> dict:
    """x' = a x + c with a > 0 and triangular x0 and c.

    The case-II band shrinks from its start, so its horizon lies inside
    the span but never at the first step, and no op warns.
    """
    return {
        "case": case,
        "a": float(rng.uniform(0.5, 1.5)),
        "x0": _tri(rng, float(rng.uniform(-1.0, 1.0)), (0.5, 1.5), (0.5, 1.5)),
        "c": _tri(rng, float(rng.uniform(-0.5, 0.5)), (0.1, 1.0), (0.1, 1.0)),
    }


def linear_spec(params: dict, curve: dict, j_steps: int, span=None) -> dict:
    """The JSON problem spec ``ffcalc solve --spec`` and ``problem_from_json`` read."""

    def tri(t):
        return {"kind": "triangular", "a": t[0], "b": t[1], "c": t[2]}

    spec = {
        "curve": curve,
        "alpha": KOCH_DIM if curve["kind"] == "koch" else 1.0,
        "case": params["case"],
        "rhs": {"kind": "linear", "a": params["a"], "c": tri(params["c"])},
        "x0": tri(params["x0"]),
        "r_points": 101,
        "j_steps": j_steps,
    }
    if span is not None:
        spec["span"] = list(span)
    return spec


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream, so adding a stream
    leaves the others unchanged."""
    return np.random.default_rng([seed, *stream.encode()])
