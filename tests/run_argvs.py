"""python tests/run_argvs.py ARGVS BUILD: run the nohidelab argvs in the JSON
list ARGVS in this interpreter, then write to BUILD the numpy and OpenBLAS
build and kernel they ran on."""
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from nohidelab.cli import main

failed = [argv for argv in json.loads(sys.argv[1]) if main(argv)]
lib = next((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"), None)
corename = lib and ctypes.CFUNCTYPE(ctypes.c_char_p)(
    ("scipy_openblas_get_corename64_", ctypes.CDLL(str(lib))))().decode()
Path(sys.argv[2]).write_text(json.dumps({
    "numpy": np.__version__, "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
    "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"), "openblas_corename": corename}))
sys.exit(f"failed: {failed}" if failed else None)
