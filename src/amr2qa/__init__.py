"""amr2qa: generate question-answer pairs from AMR-annotated sentences."""

__version__ = "0.1.0"


def warn(message: str, *args) -> None:
    """Log ``message % args`` as a warning on the ``amr2qa`` logger.
    ``logging`` loads on the first call, so a run that warns about nothing
    never loads it."""
    import logging

    logging.getLogger("amr2qa").warning(message, *args)
