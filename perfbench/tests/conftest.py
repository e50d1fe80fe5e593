import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
_ROOT = os.path.dirname(_BENCH)
for path in (_BENCH, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
