import gc
import sys

# Reference counting frees all a command makes (nothing cubary builds per
# face or trial forms a cycle), so the cyclic collector would only cost time.
gc.disable()

from .cli import main

sys.exit(main())
