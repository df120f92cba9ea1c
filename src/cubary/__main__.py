import gc
import os
import sys


def run():
    # reference counting frees all a command makes (nothing cubary builds per
    # face or trial forms a cycle), so the cyclic collector would only cost time
    gc.disable()
    from .cli import main  # looked up per call, once the collector is off
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # what is still buffered would fail the interpreter's own flush at
        # exit (exit 120): send it to os.devnull, as the SIGPIPE note in the
        # signal module's docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == 0:  # else main() has reported the failure already
            print(f"cubary: error: I/O error: {exc}", file=sys.stderr)
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
