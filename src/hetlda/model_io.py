"""Versioned on-disk model format.

JSON with one entry per pairwise rule. Weights are written as JSON
numbers, whose text form round-trips to the exact same float, so a
saved model predicts bit-identically after loading.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .discriminant import LabeledDataset, LinearDiscriminant
from .errors import DimensionMismatch, ParseError, VersionMismatch
from .multiclass import OvoModel

__all__ = ["FORMAT_VERSION", "dataset_hash", "save_model", "load_model"]

FORMAT_VERSION = 1


def dataset_hash(data: LabeledDataset) -> str:
    """sha256 over the sample array bytes; identifies what was trained on."""
    digest = hashlib.sha256()
    digest.update(str(data.features.shape).encode())
    digest.update(np.ascontiguousarray(data.features).tobytes())
    digest.update(np.ascontiguousarray(data.labels).tobytes())
    return digest.hexdigest()


def save_model(path: str, model: OvoModel, method: str,
               metadata: dict | None = None) -> None:
    document = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "n_classes": model.n_classes,
        "class_names": list(model.class_names),
        "pairs": [
            {"class_a": a, "class_b": b, "w": [float(v) for v in disc.w],
             "w0": disc.w0, "p_e": p_e}
            for a, b, disc, p_e in model.pairs
        ],
        "metadata": metadata or {},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def _number(value) -> float:
    # float() alone would also take true, false and numeric strings
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def load_model(path: str) -> tuple[OvoModel, str, dict]:
    """Read a model file; returns (model, method name, metadata). A null
    class_names, as older files may hold, gives the default names."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder can follow
            raise ParseError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ParseError("malformed model file: not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"model format version {version!r}, this build reads "
            f"{FORMAT_VERSION}")
    try:
        pairs = [(entry["class_a"], entry["class_b"],
                  LinearDiscriminant([_number(v) for v in entry["w"]],
                                     _number(entry["w0"])),
                  _number(entry["p_e"]))
                 for entry in document["pairs"]]
        model = OvoModel(pairs, document["n_classes"],
                         document["class_names"])
        return model, document["method"], document.get("metadata", {})
    except (DimensionMismatch, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from None
