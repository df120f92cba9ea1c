import gc
import sys


def run():
    # reference counting frees all a command makes (nothing cubary builds per
    # face or trial forms a cycle), so the cyclic collector would only cost time
    gc.disable()
    from .cli import main  # looked up per call, once the collector is off
    sys.exit(main())


if __name__ == "__main__":
    run()
