import os
import sys


def main() -> int:
    """Entry of ``python -m econrank`` and the ``econrank`` script.

    BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is set: it must be
    set before numpy loads, so ``cli`` (and with it numpy) is imported after.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
