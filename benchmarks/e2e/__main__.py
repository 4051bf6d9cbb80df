"""``python -m benchmarks.e2e``: run the end-to-end benchmark."""

import sys

from benchmarks.e2e.harness import main

if __name__ == "__main__":
    sys.exit(main())
