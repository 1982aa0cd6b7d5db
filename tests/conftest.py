import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Imported before any test module loads numpy, so the in-process suite runs
# under the package's one-thread BLAS pin, as the command-line tool does.
import facemark  # noqa: E402, F401
