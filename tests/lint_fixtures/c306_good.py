"""C306 clean: broad handlers re-raise or convert; narrow ones may swallow."""

from repro.common.errors import ReproError


def convert(path):
    try:
        return path.read_text()
    except Exception as error:
        raise ReproError(f"load failed: {error}")


def reraise_after_logging(path, log):
    try:
        return path.read_text()
    except Exception:
        log.append(path)
        raise


def narrow_swallow(path):
    try:
        return path.read_text()
    except OSError:
        return None  # narrow handlers may legitimately swallow

