"""Reading and writing model files.

A model file is JSON (or TOML on interpreters that ship ``tomllib``) with
fields:

    states  array of state labels (strings); order fixes the indexing
    q       row-major rate matrix, nonnegative off-diagonals, zero row sums
    f       observable values, one per state
    nu      optional initial distribution; defaults to a point mass on the
            first state
    seed    optional integer, used as the default seed by the command line

``save_model`` writes JSON, whose numbers are the shortest repr of each
double, so a save/load round trip reproduces the doubles exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .markov import MJPModel, make_model


@dataclass(frozen=True)
class ModelFile:
    model: MJPModel
    labels: list[str]
    seed: int | None


def _load_raw(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc.strerror}") from exc
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as exc:
            raise ParseError(path, "TOML input needs Python >= 3.11") from exc
        try:
            return tomllib.loads(text.decode("utf-8"))
        except ValueError as exc:  # TOMLDecodeError, or bytes that are not UTF-8
            raise ParseError(path, f"invalid TOML: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also bytes that are not UTF-8
        raise ParseError(path, f"invalid JSON: {exc}") from exc


def read_model_file(path: str) -> ModelFile:
    raw = _load_raw(path)
    if not isinstance(raw, dict):
        raise ParseError(path, "top level must be a table/object")
    for key in ("states", "q", "f"):
        if key not in raw:
            raise ParseError(path, f"missing required field {key!r}")
    if not isinstance(raw["states"], list):
        raise ParseError(path, "field 'states' must be an array")
    labels = [str(s) for s in raw["states"]]
    n = len(labels)
    if len(set(labels)) != n:
        raise ParseError(path, "state labels must be distinct")
    try:
        q = np.asarray(raw["q"], dtype=float)
        f = np.asarray(raw["f"], dtype=float)
        nu = raw.get("nu")
        if nu is not None:
            nu = np.asarray(nu, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, f"numeric field malformed: {exc}") from exc
    if q.shape != (n, n):
        raise ParseError(path, f"field 'q' must be {n}x{n}, got {q.shape}")
    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:  # a JSON true is an int too
        raise ParseError(path, "field 'seed' must be an integer")
    try:
        model = make_model(q, f, nu)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from exc
    return ModelFile(model=model, labels=labels, seed=seed)


def load_model(path: str) -> MJPModel:
    """Parse, validate, and assemble a model: irreducible, pi computed, f centered."""
    return read_model_file(path).model


def save_model(mf: ModelFile, path: str) -> None:
    """Write the normalized model back out as one line of JSON."""
    model = mf.model
    doc = {
        "states": mf.labels,
        "q": model.q.tolist(),
        "f": model.f.tolist(),
        "nu": model.nu.tolist(),
    }
    if mf.seed is not None:
        doc["seed"] = mf.seed
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
