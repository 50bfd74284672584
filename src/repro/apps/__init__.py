"""Application models: file transfer (memory or disk backed)."""

from repro.apps.diskmodel import DiskModel
from repro.apps.filetransfer import AppResult, ReceiverApp, sender_app

__all__ = ["DiskModel", "sender_app", "ReceiverApp", "AppResult"]
