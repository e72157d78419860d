import os
import sys

import hemiflow

sys.path.insert(0, os.path.dirname(__file__))

# the CLI tests start child interpreters; they import the same hemiflow as
# the tests, also when only pytest's ``pythonpath`` setting put it on the path
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hemiflow.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
