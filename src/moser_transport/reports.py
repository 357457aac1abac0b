"""Report serialisation: canonical JSON and full-precision CSV, written atomically."""

import json
import os
import tempfile

import numpy as np


def canonical_json(obj):
    """Stable key order, UTF-8; byte-identical across runs for equal content."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_text_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    write_text_atomic(path, canonical_json(obj))


def write_csv(path, columns):
    """CSV of named float columns at full precision (``%.17g``).

    ``columns`` maps each header to a sequence or to a scalar that repeats
    down the rows; a missing value (None) is written as nan.
    """
    cells = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                  for v in columns.values()))
    lines = [",".join(columns)]
    for row in zip(*(c.tolist() for c in cells)):
        lines.append(",".join(format(v, ".17g") for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")
