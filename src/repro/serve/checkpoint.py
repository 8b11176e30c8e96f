"""Model persistence: config + weights + dataset recipe in one file.

A checkpoint is a compressed ``.npz`` holding

* ``__meta__`` — JSON: format version, model name, model config and
  the dataset build recipe (the ``build_dataset`` keyword arguments);
* ``param::<name>`` — every entry of ``model.state_dict()``;
* ``extra::<name>`` — non-parameter arrays the model needs at
  inference time (``model.extra_state()``, e.g. Graph-Flashback's
  fitted transition matrix or MC's count tables).

``load_checkpoint`` rebuilds the dataset from the recipe (or reuses a
caller-provided one), reconstructs the model through the same factory
paths the experiment harness uses, and restores the weights — so a
trained model round-trips with bit-identical evaluation metrics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict

import numpy as np

CHECKPOINT_FORMAT = 1
_PARAM = "param::"
_EXTRA = "extra::"


@dataclass
class LoadedCheckpoint:
    """What ``load_checkpoint`` returns: the restored model plus context."""

    model: Any
    dataset: Any
    meta: Dict[str, Any]


def _model_meta(model) -> Dict[str, Any]:
    from ..baselines import BASELINE_NAMES
    from ..core.model import TSPNRA

    if isinstance(model, TSPNRA):
        return {"model_name": model.name, "model_config": asdict(model.config)}
    if model.name not in BASELINE_NAMES:
        # fail at save time, not with a silently unloadable file
        raise ValueError(
            f"cannot checkpoint {type(model).__name__} (name={model.name!r}): "
            "load_checkpoint reconstructs models via make_baseline, so the "
            "name must be registered in repro.baselines.BASELINE_NAMES"
        )
    if not model.requires_gradient_training:  # count-based models (MC)
        return {"model_name": model.name, "model_config": {"smoothing": model.smoothing}}
    return {"model_name": model.name, "model_config": {"dim": model.dim}}


def save_checkpoint(model, path, dataset=None) -> Path:
    """Serialise ``model`` (and the dataset recipe, if given) to ``path``.

    Passing ``dataset`` records its build arguments so the checkpoint
    is self-contained; without it, ``load_checkpoint`` requires the
    caller to supply a compatible dataset.
    """
    meta: Dict[str, Any] = {"format": CHECKPOINT_FORMAT, "num_pois": model.num_pois}
    meta.update(_model_meta(model))
    if dataset is not None:
        if dataset.build_args is None:
            raise ValueError("dataset has no build recipe; construct it via build_dataset()")
        meta["dataset"] = dataset.build_args
    arrays = {_PARAM + name: value for name, value in model.state_dict().items()}
    arrays.update({_EXTRA + name: value for name, value in model.extra_state().items()})
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def read_checkpoint(path):
    """Raw ``(meta, params, extra)`` of a checkpoint file, no rebuild.

    The weights-only read path: hot weight reload
    (:meth:`repro.serve.InferenceServer.reload_weights`) swaps new
    parameters into an already-constructed model without paying for a
    dataset rebuild, and :func:`load_checkpoint` builds on it.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(data["__meta__"].item())
        params = {k[len(_PARAM):]: data[k] for k in data.files if k.startswith(_PARAM)}
        extra = {k[len(_EXTRA):]: data[k] for k in data.files if k.startswith(_EXTRA)}
    found = meta.get("format")
    if found != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint {path!s} uses format {found!r}, but this build "
            f"supports format {CHECKPOINT_FORMAT}; re-save it with a repro "
            "version whose CHECKPOINT_FORMAT matches"
        )
    return meta, params, extra


def apply_extra_state(model, extra: Dict[str, np.ndarray], strict: bool = True) -> Dict:
    """Feed ``extra::`` arrays into the model's persistence hook.

    ``strict=True`` passes everything through, so a key the model does
    not consume raises (the model's ``load_extra_state`` rejects
    leftovers).  ``strict=False`` is the forward-compatible weights-only
    path: only the keys the model itself would *write* today (its
    ``extra_state()`` key set) are applied, and unknown ``extra::``
    entries — e.g. side-state introduced by a newer schema — are
    returned rather than raised, so old builds can still serve new
    checkpoints' weights.
    """
    if strict:
        model.load_extra_state(extra)
        return {}
    known = set(model.extra_state())
    model.load_extra_state({k: v for k, v in extra.items() if k in known})
    return {k: v for k, v in extra.items() if k not in known}


def build_dataset_from_meta(meta, path="<checkpoint>"):
    """Rebuild the dataset a checkpoint's ``meta`` recipe describes.

    The recipe is seeded, so every loader — each cluster shard process
    included — rebuilds the *identical* dataset without shipping it
    across a process boundary.
    """
    from ..data import build_dataset

    recipe = meta.get("dataset")
    if recipe is None:
        raise ValueError("checkpoint carries no dataset recipe; pass dataset=")
    try:
        return build_dataset(**recipe)
    except (KeyError, TypeError) as error:
        # An unknown preset name surfaces as a bare KeyError deep in
        # build_dataset, and a recipe written by a newer schema can
        # carry arguments this build_dataset doesn't accept — both
        # mean "this checkpoint's dataset isn't available here".
        raise ValueError(
            f"checkpoint {path!s}: cannot rebuild its dataset from recipe "
            f"{recipe!r}: {error}"
        ) from error


def build_model_from_meta(meta, dataset, rng=None):
    """Construct the (unweighted) model skeleton ``meta`` describes.

    The factory half of :func:`load_checkpoint`, which then restores
    the weights and extra state into it.
    """
    from ..baselines import make_baseline
    from ..baselines.markov import MarkovChain
    from ..core.config import TSPNRAConfig
    from ..core.model import TSPNRA

    num_pois = len(dataset.city.pois)
    if num_pois != meta["num_pois"]:
        raise ValueError(
            f"dataset has {num_pois} POIs but the checkpoint was trained on {meta['num_pois']}"
        )
    name = meta["model_name"]
    config = meta["model_config"]
    if name == TSPNRA.name:
        return TSPNRA.from_dataset(dataset, TSPNRAConfig(**config), rng=rng)
    if name == MarkovChain.name:
        return MarkovChain(num_pois, **config)
    locations = np.array(
        [dataset.spec.bbox.normalize(x, y) for x, y in dataset.city.pois.xy]
    )
    return make_baseline(name, num_pois, locations, dim=config["dim"], rng=rng)


def load_checkpoint(path, dataset=None, rng=None, strict: bool = True) -> LoadedCheckpoint:
    """Restore a model saved by :func:`save_checkpoint`.

    ``dataset`` skips the rebuild when the caller already holds the
    (identical) dataset the model was trained on.  ``strict=False``
    tolerates unknown ``extra::`` keys (see :func:`apply_extra_state`);
    the ignored key names land in ``meta["ignored_extra"]`` so callers
    can surface them.
    """
    meta, params, extra = read_checkpoint(path)
    if dataset is None:
        dataset = build_dataset_from_meta(meta, path=path)
    model = build_model_from_meta(meta, dataset, rng=rng)
    model.load_state_dict(params)
    ignored = apply_extra_state(model, extra, strict=strict)
    if ignored:
        meta = {**meta, "ignored_extra": sorted(ignored)}
    model.eval()
    return LoadedCheckpoint(model=model, dataset=dataset, meta=meta)
