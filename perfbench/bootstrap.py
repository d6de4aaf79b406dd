"""Makes both benchmark processes use the checkout's own sources and
keep their temporary files inside the checkout.

``prepare()`` runs before ``repro`` is imported.  The same-machine
transport parks its rendezvous socket and ring files under the
temporary directory; a short relative path keeps those inside the
checkout and under the Unix socket path limit however deep the
checkout sits.  Both processes run from the checkout root.
"""

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"


def prepare() -> None:
    os.chdir(ROOT)
    os.makedirs(TMP_DIR, exist_ok=True)
    tempfile.tempdir = TMP_DIR
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
