"""Child process for the ``setup_s`` metric: import amr2qa, do only the
set-up that ``generate`` does before reading input (load the bundled
template pack, build the scorer) and exit.

Usage: ``python setup_probe.py baseline`` or
``python setup_probe.py remote URL``.
"""

import sys

from amr2qa.scorer import make_scorer
from amr2qa.templates import (
    bundled_mapping_path,
    bundled_template_path,
    load_store,
)

load_store(bundled_template_path(), bundled_mapping_path())
make_scorer(*sys.argv[1:3])
