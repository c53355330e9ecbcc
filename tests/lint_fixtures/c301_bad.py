"""C301: bare except swallows SystemExit and KeyboardInterrupt."""


def load(path):
    try:
        return path.read_text()
    except:
        return None
